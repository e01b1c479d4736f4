"""Concurrent multi-tenant serving layer.

The paper frames the recommender as a curator-facing service reacting to
each knowledge-base evolution step; this package is the long-lived,
thread-safe subsystem that actually serves that workload:

* :class:`~repro.service.registry.TenantRegistry` /
  :class:`~repro.service.registry.Tenant` -- named
  :class:`~repro.kb.version.VersionedKnowledgeBase`\\ s with their user
  population, one shared :class:`~repro.recommender.engine.RecommenderEngine`
  per tenant and a per-tenant write lock for commits,
* :class:`~repro.service.admission.AdmissionQueue` -- coalesces concurrent
  ``recommend`` requests for the same (tenant, version pair) into single
  batched scoring calls on a worker pool,
* :class:`~repro.service.service.RecommendationService` /
  :class:`~repro.service.service.ServiceConfig` -- the Python API tying the
  two together with snapshot-consistent reads: a request keeps scoring the
  version pair it was admitted on even while a writer commits the next
  evolution step,
* :class:`~repro.service.sharding.ShardSupervisor` -- the cross-process
  scale-out: N worker processes each running a full service over the
  tenant subset a stable hash of the tenant name routes to them, fed over
  local pipes with the binary wire format of :mod:`repro.kb.wire`,
* :mod:`repro.service.replica` -- zero-copy read replicas for hot
  tenants: the supervisor publishes a tenant's store payload once into
  shared memory, R extra processes decode it lazily out of the segment
  and serve reads round-robin with the owner, while commits stay
  single-owner and reach replicas as O(delta) commit records; late
  joiners bootstrap warm from a re-published snapshot plus the owner's
  already-computed measure artefacts, and
  :class:`~repro.service.autoscale.AutoscaleController` adds/retires/
  respawns them at runtime from the per-tenant read share,
* :mod:`repro.service.aio` -- the HTTP front-end of every topology
  (``python -m repro serve``, with or without ``--shards N`` /
  ``--replicas R``): the JSON API from one asyncio event loop over a
  service or a shard supervisor, so idle keep-alive connections cost a
  coroutine instead of a thread, plus the SSE ``/events`` stream,
* :mod:`repro.service.http` -- the request semantics that front-end and
  the shard processes share (error taxonomy, payload validation, ETag
  matching, the ``/commit`` write path),
* :mod:`repro.service.metrics` -- the ops plane: the lock-light
  per-tenant counter/latency aggregator behind the frozen, versioned
  ``GET /stats`` payload, and the threshold rules behind ``GET /alerts``,
* :mod:`repro.service.respcache` -- the response-cache plane
  (``serve --cache-entries/--cache-bytes``): a byte-budgeted LRU of
  fully serialised response bytes keyed by (tenant, version pair,
  user + population epoch, k), with singleflight fills and the strong
  ETags behind the HTTP ``If-None-Match``/304 contract.  Version-pair
  immutability means committed entries never go stale (no TTL); the
  cache is process-local, so every topology above gets it with zero
  coherence traffic.

Results are bit-identical to serial, single-threaded execution: batching,
concurrency, sharding, replication and the HTTP transport change cost,
never values (the service test suite asserts exactly that, in every
topology).
"""

from repro.service.admission import AdmissionQueue, AdmissionStats
from repro.service.aio import AsyncServerThread, AsyncServiceServer
from repro.service.autoscale import AutoscaleController
from repro.service.errors import (
    RemoteInternalError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardError,
    UnknownTenantError,
    UnknownUserError,
)
from repro.service.metrics import (
    STATS_VERSION,
    AlertThresholds,
    ServiceMetrics,
    evaluate_alerts,
)
from repro.service.registry import Tenant, TenantRegistry
from repro.service.respcache import CachedResponse, ResponseCache, make_etag
from repro.service.service import RecommendationService, ServiceConfig
from repro.service.sharding import ShardSupervisor

__all__ = [
    "STATS_VERSION",
    "AdmissionQueue",
    "AdmissionStats",
    "AlertThresholds",
    "AsyncServerThread",
    "AsyncServiceServer",
    "AutoscaleController",
    "CachedResponse",
    "RecommendationService",
    "RemoteInternalError",
    "ResponseCache",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "ShardError",
    "ShardSupervisor",
    "Tenant",
    "TenantRegistry",
    "UnknownTenantError",
    "UnknownUserError",
    "evaluate_alerts",
    "make_etag",
]
