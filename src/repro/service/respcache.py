"""The versioned response cache: whole-response memoisation with singleflight.

Every serving topology recomputes a recommendation from scratch per
request: the :class:`~repro.service.admission.AdmissionQueue` coalesces
only *concurrent* requests, so a steady-state population re-asking for the
same ``(tenant, version pair, user, k)`` pays the full score + diversify +
explain + JSON-serialise cost every time.  The substrate's core invariant
-- responses over committed version pairs are **bit-identical and
deterministic** -- makes whole-response memoisation a pure win, so
:class:`ResponseCache` stores the *fully serialised response bytes* (what
the HTTP front-end writes on the wire) and hands them back without
touching the engine.

Why the design is this simple:

* **No TTL, ever.**  Committed versions are immutable and the cache key
  pins the exact ``(old_id, new_id)`` pair resolved at admission time (the
  same snapshot the request would score).  A cached body can therefore
  never go stale: a commit moves the *head pair*, which changes the key of
  subsequent head-pair requests, it never changes what an existing key
  means.  Entries leave the cache only by LRU pressure or tenant eviction.
* **Population epoch, not scanning.**  User profiles and feedback *can*
  change responses (they feed the relatedness scorer and the novelty
  history), so every user/feedback mutation routed through the registry's
  ``on_population_change`` seam bumps a per-tenant *epoch* that is folded
  into the key.  A bump makes every prior entry of that tenant unreachable
  in O(1) -- no scan, no per-entry bookkeeping; the orphaned entries age
  out under normal LRU pressure.
* **Singleflight fills.**  A miss installs an in-flight marker; concurrent
  (and repeated, until the fill lands) misses on the same key attach to
  that one computation instead of duplicating it -- the admission queue's
  coalescing idea extended across time.  The leader's failure propagates
  to the waiters (no retry stampede); only the leader counts as a *miss*,
  waiters count as ``singleflight_waits``, so the miss counter is exactly
  the number of engine-filling computations -- the hardware-independent
  signal the regression gate asserts on.
* **Process-local by construction.**  Keys are immutable facts (committed
  version ids, an epoch owned by the same process that mutates the
  population), so shard and replica processes each run their own cache
  with no cross-process coherence protocol; a router/shard split simply
  caches where the computation happens.

The cache is byte-budgeted (``max_bytes``) and entry-budgeted
(``max_entries``); zero means unbounded on that axis, and the serving
layer only constructs a cache when at least one budget is set.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, NamedTuple, Optional, Tuple


def make_etag(body: bytes) -> str:
    """The strong ETag for a response body: quoted SHA-256 of the bytes.

    Strong (no ``W/`` prefix) because cached bodies are bit-identical by
    construction; two equal tags mean byte-for-byte equal payloads, which
    is exactly what ``If-None-Match`` revalidation needs.
    """
    return f'"{hashlib.sha256(body).hexdigest()}"'


class CachedResponse(NamedTuple):
    """One serving result, wire-ready.

    ``body`` is the exact UTF-8 JSON the HTTP front-end writes (a bare
    ``json.dumps``), ``etag`` its strong validator, ``package`` the live
    object for Python-API callers (``None`` when the response crossed a
    process boundary from a shard or replica), and ``hit`` is
    True when the response came from the cache (including attaching to
    another request's in-flight fill) rather than a fresh computation.
    """

    body: bytes
    etag: str
    package: object
    hit: bool


class _Fill:
    """One in-flight singleflight computation.

    Followers register callbacks (never block inside the cache); the
    blocking service path turns its callback into a Future wait.
    """

    __slots__ = ("done", "response", "error", "callbacks")

    def __init__(self) -> None:
        self.done = False
        self.response: Optional[CachedResponse] = None
        self.error: Optional[BaseException] = None
        self.callbacks: list = []


class FillTicket:
    """A claim on one cache miss (see :meth:`ResponseCache.begin`).

    A **leader** ticket owns the computation: exactly one exists per key
    at a time, and the leader must end it with :meth:`commit` (publish the
    serialised body, wake the followers) or :meth:`abort` (propagate its
    failure to them -- no retry stampede; the next request after an abort
    leads a fresh fill).  A **follower** ticket carries no obligation;
    :meth:`on_done` delivers the leader's outcome, immediately if it
    already landed.  Nothing here blocks, so event-loop-style callers (the
    shard worker's recv loop) use the same singleflight as threads.
    """

    __slots__ = ("_cache", "_key", "_fill", "leader")

    def __init__(
        self, cache: "ResponseCache", key: Tuple, fill: "_Fill", leader: bool
    ) -> None:
        self._cache = cache
        self._key = key
        self._fill = fill
        self.leader = leader

    def commit(self, body: bytes, package: object) -> CachedResponse:
        """Publish the computed response (leader only) -> the leader's view."""
        assert self.leader, "only the fill leader may commit"
        return self._cache._commit_fill(self._key, self._fill, body, package)

    def abort(self, error: BaseException) -> None:
        """Propagate the leader's failure to every follower (leader only)."""
        assert self.leader, "only the fill leader may abort"
        self._cache._abort_fill(self._key, self._fill, error)

    def on_done(self, callback: Callable[[Optional[CachedResponse], Optional[BaseException]], None]) -> None:
        """Run ``callback(response, error)`` when the fill lands.

        Exactly one of the two arguments is None; a follower's
        ``response.hit`` is True (the work was the leader's).
        """
        self._cache._on_fill_done(self._fill, callback)


class _Entry:
    __slots__ = ("tenant", "body", "etag", "package")

    def __init__(self, tenant: str, body: bytes, etag: str, package: object) -> None:
        self.tenant = tenant
        self.body = body
        self.etag = etag
        self.package = package


class _TenantCacheCounters:
    __slots__ = ("hits", "misses", "evictions", "entries", "bytes", "singleflight_waits")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.entries = 0
        self.bytes = 0
        self.singleflight_waits = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "bytes": self.bytes,
            "singleflight_waits": self.singleflight_waits,
        }


class ResponseCache:
    """Bounded, byte-budgeted LRU of fully serialised responses.

    ``max_entries`` / ``max_bytes`` bound the cache globally (zero =
    unbounded on that axis); accounting and the ops counters are kept per
    tenant.  All public methods are thread-safe; the lock is never held
    across a fill computation.

    ``max_bytes`` and the ``bytes`` gauge count response *body* bytes
    only.  Each entry also keeps the live ``RecommendationPackage`` it was
    serialised from, which the Python API returns on a hit, so the memory
    an entry holds is larger than its charge: 64 entries on the perfbench
    world held 391 KB of live memory against 167 KB counted (about 2.3x).
    """

    def __init__(self, max_entries: int = 0, max_bytes: int = 0) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._inflight: Dict[Tuple, _Fill] = {}
        self._epochs: Dict[str, int] = {}
        self._counters: Dict[str, _TenantCacheCounters] = {}
        self._bytes = 0

    # -- epochs (population invalidation) -----------------------------------------

    def epoch(self, tenant: str) -> int:
        """The tenant's current population epoch (0 until first bump)."""
        with self._lock:
            return self._epochs.get(tenant, 0)

    def bump_epoch(self, tenant: str) -> int:
        """Invalidate the tenant's entries in O(1): change what keys mean.

        Prior entries stay resident (counted in ``entries``/``bytes``)
        until LRU pressure reclaims them, but no future lookup can reach
        them -- the epoch is part of every key.
        """
        with self._lock:
            epoch = self._epochs.get(tenant, 0) + 1
            self._epochs[tenant] = epoch
            return epoch

    # -- the read path -------------------------------------------------------------

    def begin(
        self, tenant: str, old_id: str, new_id: str, user_id: str, k: int
    ) -> "CachedResponse | FillTicket":
        """One non-blocking cache consultation.

        Returns a :class:`CachedResponse` on a hit.  On a miss, returns a
        :class:`FillTicket`: a *leader* ticket (``ticket.leader`` is True,
        counted as a **miss**) obliges the caller to compute the response
        and call :meth:`FillTicket.commit` / :meth:`FillTicket.abort`; a
        *follower* ticket (counted as a **singleflight_wait**) attaches to
        the in-flight leader via :meth:`FillTicket.on_done`.  Only leaders
        count as misses, so the miss counter is exactly the number of
        engine-filling computations -- the hardware-independent signal the
        regression gate asserts on.

        The key (including the population epoch) is pinned *here*: a
        mutation racing the fill bumps the epoch, so the eventual commit
        lands under the pre-mutation key and is simply never read again.
        """
        with self._lock:
            key = (tenant, old_id, new_id, (user_id, self._epochs.get(tenant, 0)), k)
            counters = self._counters.setdefault(tenant, _TenantCacheCounters())
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                counters.hits += 1
                return CachedResponse(entry.body, entry.etag, entry.package, True)
            fill = self._inflight.get(key)
            if fill is None:
                fill = _Fill()
                self._inflight[key] = fill
                counters.misses += 1
                return FillTicket(self, key, fill, leader=True)
            counters.singleflight_waits += 1
            return FillTicket(self, key, fill, leader=False)

    def _commit_fill(self, key: Tuple, fill: _Fill, body: bytes, package: object) -> CachedResponse:
        etag = make_etag(body)
        response = CachedResponse(body, etag, package, False)
        with self._lock:
            self._inflight.pop(key, None)
            self._insert_locked(key, _Entry(key[0], body, etag, package))
            fill.response = response
            fill.done = True
            callbacks, fill.callbacks = fill.callbacks, []
        follower = CachedResponse(body, etag, package, True)
        for callback in callbacks:
            callback(follower, None)
        return response

    def _abort_fill(self, key: Tuple, fill: _Fill, error: BaseException) -> None:
        with self._lock:
            self._inflight.pop(key, None)
            fill.error = error
            fill.done = True
            callbacks, fill.callbacks = fill.callbacks, []
        for callback in callbacks:
            callback(None, error)

    def _on_fill_done(self, fill: _Fill, callback) -> None:
        with self._lock:
            if not fill.done:
                fill.callbacks.append(callback)
                return
            response, error = fill.response, fill.error
        if error is not None:
            callback(None, error)
        else:
            assert response is not None
            callback(
                CachedResponse(response.body, response.etag, response.package, True),
                None,
            )

    def _insert_locked(self, key: Tuple, entry: _Entry) -> None:
        size = len(entry.body)
        if self.max_bytes and size > self.max_bytes:
            return  # an entry bigger than the whole budget is never cached
        old = self._entries.pop(key, None)
        if old is not None:  # same key re-filled (epoch race): replace in place
            self._account_remove(old)
        self._entries[key] = entry
        self._bytes += size
        counters = self._counters.setdefault(entry.tenant, _TenantCacheCounters())
        counters.entries += 1
        counters.bytes += size
        while self._entries and (
            (self.max_entries and len(self._entries) > self.max_entries)
            or (self.max_bytes and self._bytes > self.max_bytes)
        ):
            _, evicted = self._entries.popitem(last=False)
            self._account_remove(evicted)
            victim = self._counters.setdefault(evicted.tenant, _TenantCacheCounters())
            victim.evictions += 1

    def _account_remove(self, entry: _Entry) -> None:
        size = len(entry.body)
        self._bytes -= size
        counters = self._counters.get(entry.tenant)
        if counters is not None:
            counters.entries -= 1
            counters.bytes -= size

    # -- tenant lifecycle ----------------------------------------------------------

    def forget_tenant(self, tenant: str) -> None:
        """Drop a tenant's entries, counters and epoch (registry eviction).

        A re-registered name is a *new* tenant: its counters must start at
        zero and nothing cached for the old population may survive, even
        if the new knowledge base reuses version ids.
        """
        with self._lock:
            for key in [k for k, e in self._entries.items() if e.tenant == tenant]:
                entry = self._entries.pop(key)
                self._bytes -= len(entry.body)
            self._counters.pop(tenant, None)
            self._epochs.pop(tenant, None)

    # -- introspection ---------------------------------------------------------------

    def stats(self, tenant: str) -> Dict[str, int]:
        """The tenant's ``/stats`` cache block (zeros if never touched)."""
        with self._lock:
            counters = self._counters.get(tenant)
            if counters is None:
                return _TenantCacheCounters().snapshot()
            return counters.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Bytes of body currently resident, across all tenants."""
        with self._lock:
            return self._bytes
