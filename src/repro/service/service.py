"""The serving facade: ``ServiceConfig`` + ``RecommendationService``.

``RecommendationService`` is the long-lived object a deployment holds: a
:class:`~repro.service.registry.TenantRegistry` of knowledge bases behind
one :class:`~repro.service.admission.AdmissionQueue`.  Reads
(:meth:`RecommendationService.recommend`) are admitted with the version
pair captured at arrival and never block on writers; writes
(:meth:`RecommendationService.commit` and friends) serialise per tenant on
the chain's write lock.  Every result is bit-identical to running the same
requests serially on a private engine -- concurrency and batching are pure
cost optimisations.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.io.storage import package_to_dict
from repro.kb.graph import Graph
from repro.kb.triples import Triple
from repro.kb.version import Version, VersionedKnowledgeBase
from repro.profiles.feedback import FeedbackStore
from repro.profiles.user import User
from repro.recommender.engine import EngineConfig
from repro.recommender.items import RecommendationPackage
from repro.service.admission import AdmissionQueue
from repro.service.errors import ServiceClosedError
from repro.service.http import handle_commit
from repro.service.metrics import STATS_VERSION, ServiceMetrics
from repro.service.registry import Tenant, TenantRegistry
from repro.service.respcache import CachedResponse, ResponseCache, make_etag


@dataclass(frozen=True)
class ServiceConfig:
    """All serving knobs in one place.

    ``engine`` is the per-tenant engine configuration (every tenant's
    shared engine is built from it); ``k`` is the default package size a
    request gets when it does not ask for one.
    """

    k: int = 5
    workers: int = 4
    max_batch: int = 64
    #: Backpressure: requests beyond this many queued are shed with
    #: :class:`ServiceOverloadedError` (HTTP 503) instead of piling up.
    max_pending: int = 1024
    request_timeout_s: float = 60.0
    #: Commit-log roll-up thresholds for persisted tenants
    #: (``add_tenant(..., store=...)``): when a tenant's ``commits.rpl``
    #: reaches either bound after a sync, the store rewrites its base and
    #: truncates the log (:meth:`repro.io.store.BinaryKBStore.rollup`),
    #: bounding recovery time.  ``None`` disables a threshold.
    rollup_bytes: Optional[int] = None
    rollup_records: Optional[int] = None
    #: Response-cache budgets (see :mod:`repro.service.respcache`): the
    #: maximum cached responses and the byte budget for their serialised
    #: bodies.  Zero on a knob means no bound on that axis; zero on
    #: *both* (the default) disables the cache entirely -- every read
    #: then computes exactly as it did before the cache existed.
    cache_entries: int = 0
    cache_bytes: int = 0
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        for knob in ("rollup_bytes", "rollup_records"):
            value = getattr(self, knob)
            if value is not None and value < 1:
                raise ValueError(f"{knob} must be a positive integer, got {value!r}")
        for knob in ("cache_entries", "cache_bytes"):
            value = getattr(self, knob)
            if value < 0:
                raise ValueError(f"{knob} must be >= 0, got {value!r}")


def _resolve_future(future: "Future", value=None, error: BaseException | None = None) -> None:
    """Resolve a hand-made future, tolerating an already-cancelled one.

    The front-end's ``asyncio.wait_for`` cancels on timeout (the
    admission queue tolerates the same race in ``_resolve``); the fill
    itself still completes and lands in the cache, and a shard's late
    answer still reaches the supervisor's pipe client, which resolves
    through here too.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except Exception:  # cancelled between check and set: the client left
        pass


class RecommendationService:
    """Thread-safe multi-tenant recommendation serving."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: TenantRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry or TenantRegistry()
        # The ops plane's aggregator: the admission queue feeds it
        # per-tenant request counters/latencies, tenants feed commits,
        # and the front-end reads it through stats() / SSE /events.
        self.metrics = ServiceMetrics()
        self.registry.attach_metrics(self.metrics)
        # The response-cache plane (repro.service.respcache): memoised
        # wire bytes keyed by (tenant, version pair, user+epoch, k).
        # Process-local on purpose -- committed version ids and the
        # population epoch are facts this process owns, so shard/replica
        # processes each cache independently with zero coherence traffic.
        if self.config.cache_entries or self.config.cache_bytes:
            self.respcache: Optional[ResponseCache] = ResponseCache(
                max_entries=self.config.cache_entries,
                max_bytes=self.config.cache_bytes,
            )
            self.registry.attach_response_cache(self.respcache)
        else:
            self.respcache = None
        self._queue = AdmissionQueue(
            workers=self.config.workers,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            metrics=self.metrics,
        )

    # -- tenants -----------------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        kb: VersionedKnowledgeBase,
        users: Iterable[User] = (),
        feedback: FeedbackStore | None = None,
        on_commit=None,
        on_close=None,
        on_population_change=None,
        store=None,
    ) -> Tenant:
        """Register a knowledge base (and its users) for serving.

        ``on_commit`` (optional, one ``Version`` argument) runs after every
        tenant commit under the tenant write lock -- the persistence seam
        for the binary store's O(delta) commit-log appends.  ``on_close``
        (optional, no arguments) runs once when the tenant leaves serving
        (eviction or service shutdown) -- the release seam for resources
        backing the tenant, e.g. a binary store's lazy memory map.
        ``on_population_change`` (optional, no arguments) runs after any
        user/feedback mutation routed through the tenant
        (:meth:`~repro.service.registry.Tenant.add_user`,
        :meth:`~repro.service.registry.Tenant.record_feedback`); the
        response cache's epoch bump is wired in independently and always
        runs first, so this hook is purely for caller-side bookkeeping.

        ``store`` (optional, a :class:`~repro.io.store.BinaryKBStore`
        whose ``load()`` produced ``kb``) wires all of the above in one
        step: the config's ``rollup_bytes`` / ``rollup_records``
        thresholds are applied to the store, ``on_commit`` defaults to an
        O(delta) ``store.sync(kb)`` (which also rolls the log up whenever
        a threshold is crossed, under the tenant write lock), and
        ``on_close`` defaults to ``store.close``.  Explicit hooks still
        win.
        """
        if store is not None:
            if self.config.rollup_bytes is not None:
                store.rollup_bytes = self.config.rollup_bytes
            if self.config.rollup_records is not None:
                store.rollup_records = self.config.rollup_records
            if on_commit is None:
                on_commit = lambda version: store.sync(kb)  # noqa: E731
            if on_close is None:
                on_close = store.close
        return self.registry.add(
            name, kb, users, feedback,
            engine_config=self.config.engine,
            on_commit=on_commit,
            on_close=on_close,
            on_population_change=on_population_change,
            store=store,
        )

    def tenant(self, name: str) -> Tenant:
        """The named tenant (raises :class:`UnknownTenantError`)."""
        return self.registry.get(name)

    def tenants(self) -> List[Dict[str, object]]:
        """JSON-friendly tenant summaries."""
        return [tenant.describe() for tenant in self.registry]

    # -- reads --------------------------------------------------------------------

    def _resolve_read(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None,
        old_id: str | None,
        new_id: str | None,
    ) -> Tuple[Tenant, User, int, Tuple[str, str]]:
        """Validate one read and resolve its admission snapshot.

        The version pair is resolved *now* (explicit ids, or the tenant's
        current head pair) -- that is the snapshot the request scores, even
        if a writer commits more versions before a worker picks it up.
        The cache keys on the same resolved pair, so a cached body can
        never answer for a pair the request was not admitted on.
        """
        if self._queue.closed:
            raise ServiceClosedError("service is closed")
        tenant = self.registry.get(tenant_name)
        user = tenant.user(user_id)
        if (old_id is None) != (new_id is None):
            raise ValueError("old_id and new_id must be given together")
        if old_id is not None and new_id is not None:
            pair: Tuple[str, str] = (
                tenant.kb.version(old_id).version_id,
                tenant.kb.version(new_id).version_id,
            )
        else:
            pair = tenant.head_pair()
        return tenant, user, self.config.k if k is None else k, pair

    def recommend_async(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
    ) -> "Future[RecommendationPackage]":
        """Admit one request; returns the future of its package.

        This is the raw (uncached) admission path; see
        :meth:`recommend_cached` for the memoised one.
        """
        tenant, user, k, pair = self._resolve_read(
            tenant_name, user_id, k, old_id, new_id
        )
        return self._queue.submit(tenant, user, k, pair)

    def recommend_cached_async(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
    ) -> "Future[CachedResponse]":
        """One read through the response cache, as a future.

        The uniform serving path for the HTTP front-end: the resolved
        future always carries the serialised body (exactly what the
        front-end writes) and its strong ETag, whether the cache is
        enabled or not -- the cache only changes the *cost*.  Hits resolve
        immediately without touching the admission queue; a miss admits
        once and *leads* a singleflight fill, and concurrent or repeated
        misses on the same key attach to that fill instead of
        re-admitting.  Nothing blocks the caller: completion rides the
        admission workers' done-callbacks, so event-loop callers (the
        front-end, the shard and replica receive loop) use it directly.
        """
        tenant, user, k, pair = self._resolve_read(
            tenant_name, user_id, k, old_id, new_id
        )
        result: "Future[CachedResponse]" = Future()

        def lead() -> None:
            inner = self._queue.submit(tenant, user, k, pair)

            def finish(f: "Future[RecommendationPackage]") -> None:
                try:
                    package = f.result()
                    body = json.dumps(package_to_dict(package)).encode("utf-8")
                except BaseException as exc:
                    _resolve_future(result, error=exc)
                else:
                    _resolve_future(
                        result, CachedResponse(body, make_etag(body), package, False)
                    )

            inner.add_done_callback(finish)

        if self.respcache is None:
            lead()
            return result

        got = self.respcache.begin(tenant.name, pair[0], pair[1], user.user_id, k)
        if isinstance(got, CachedResponse):
            result.set_result(got)
            return result
        ticket = got
        if ticket.leader:
            inner = self._queue.submit(tenant, user, k, pair)

            def finish_fill(f: "Future[RecommendationPackage]") -> None:
                try:
                    package = f.result()
                    body = json.dumps(package_to_dict(package)).encode("utf-8")
                except BaseException as exc:
                    ticket.abort(exc)
                    _resolve_future(result, error=exc)
                else:
                    _resolve_future(result, ticket.commit(body, package))

            inner.add_done_callback(finish_fill)
        else:
            def attach(response, error) -> None:
                _resolve_future(result, response, error)

            ticket.on_done(attach)
        return result

    def recommend_cached(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
        timeout: float | None = None,
    ) -> CachedResponse:
        """Blocking :meth:`recommend_cached_async`."""
        future = self.recommend_cached_async(tenant_name, user_id, k, old_id, new_id)
        return future.result(
            timeout=self.config.request_timeout_s if timeout is None else timeout
        )

    def recommend(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
        timeout: float | None = None,
    ) -> RecommendationPackage:
        """Recommend a package for one user (blocking; admission-batched).

        With the cache enabled this goes through :meth:`recommend_cached`
        (so Python-API repeats hit too); disabled, it is the plain
        admit-and-wait path with zero serialisation overhead.
        """
        if self.respcache is not None:
            return self.recommend_cached(
                tenant_name, user_id, k, old_id, new_id, timeout=timeout
            ).package
        future = self.recommend_async(tenant_name, user_id, k, old_id, new_id)
        return future.result(
            timeout=self.config.request_timeout_s if timeout is None else timeout
        )

    # -- writes -------------------------------------------------------------------

    def commit(
        self,
        tenant_name: str,
        graph: Graph,
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Commit the next version of a tenant (serialised per tenant)."""
        return self.registry.get(tenant_name).commit(
            graph, version_id=version_id, metadata=metadata
        )

    def commit_changes(
        self,
        tenant_name: str,
        added: Iterable[Triple] = (),
        deleted: Iterable[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Commit latest + changes as a tenant's next version."""
        return self.registry.get(tenant_name).commit_changes(
            added=added, deleted=deleted, version_id=version_id, metadata=metadata
        )

    def commit_request(self, payload: Dict) -> Dict:
        """Serve one ``POST /commit`` body (N-Triples changes); blocking."""
        return handle_commit(self, payload)

    # -- introspection / lifecycle ---------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The ``GET /health`` payload: liveness plus the tenant count."""
        return {"status": "ok", "tenants": len(self.registry)}

    def stats(self) -> Dict[str, object]:
        """The frozen ``GET /stats`` payload (contract version 2).

        This exact payload is also what the front-end's SSE ``/events``
        stream publishes each tick and what
        :func:`repro.service.metrics.evaluate_alerts` reads, so the
        three surfaces can never disagree on field names.  The v2
        contract (documented field by field in ``docs/http-api.md``,
        pinned by ``tests/service/test_service_metrics.py``):

        * ``stats_version`` -- this layout's version (currently 2).
        * ``workers`` -- scoring worker threads.
        * ``tenants`` -- sorted tenant names.
        * ``admission`` -- global queue counters
          (:meth:`~repro.service.admission.AdmissionStats.snapshot`)
          plus ``depth``, the current backlog.
        * ``per_tenant`` -- per-tenant ops counters
          (:meth:`~repro.service.metrics.ServiceMetrics.tenant_snapshot`:
          commits, admitted/completed/failed/shed, batch counters,
          rolling-window ``mean_ms``/``p50_ms``/``p99_ms``) plus
          ``persistence`` (``log_records``/``log_bytes`` and the
          roll-up thresholds for persisted tenants, else ``None``) and
          -- new in v2 -- ``cache`` (the response-cache block:
          ``hits``/``misses``/``evictions``/``entries``/``bytes``/
          ``singleflight_waits``, or ``None`` when the cache is
          disabled).

        Adding fields is allowed without a version bump; renaming,
        removing or changing the meaning of one bumps ``stats_version``.
        """
        per_tenant: Dict[str, object] = {}
        for tenant in self.registry:
            entry = self.metrics.tenant_snapshot(tenant.name)
            entry["persistence"] = tenant.persistence_summary()
            entry["cache"] = (
                None if self.respcache is None else self.respcache.stats(tenant.name)
            )
            per_tenant[tenant.name] = entry
        admission = dict(self._queue.stats.snapshot())
        admission["depth"] = self._queue.depth
        return {
            "stats_version": STATS_VERSION,
            "admission": admission,
            "tenants": self.registry.names(),
            "per_tenant": per_tenant,
            "workers": self.config.workers,
        }

    @property
    def admission_stats(self):
        """The raw admission counters (tests assert coalescing on these)."""
        return self._queue.stats

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Drain the admission queue, stop the workers, release tenant resources."""
        self._queue.close(timeout=timeout)
        self.registry.close_all()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
