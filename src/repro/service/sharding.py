"""Shard-per-process serving: scale the scoring plane with cores, not threads.

One :class:`~repro.service.service.RecommendationService` is GIL-bound --
its thread workers interleave on one core no matter how many there are.
This module runs **N full services in N worker processes** and routes
every request to the process owning its tenant:

* :class:`ShardSupervisor` -- the parent-side object: spawns the shard
  processes (``multiprocessing`` *spawn* context, so workers are clean
  interpreters on every platform), hands each its tenant subset, and
  forwards requests/commits over one duplex pipe per shard with
  future-based multiplexing (many requests in flight per pipe).
* ``_shard_main`` -- the worker entry point: decodes its tenants from the
  binary wire format (:mod:`repro.kb.wire`), stands up a full
  ``RecommendationService`` (admission batching stays local to the
  shard) and runs ``_run_worker``, the receive loop shard and replica
  processes share: ``recommend`` is answered asynchronously with the
  exact body bytes and ETag a single-process front-end would write.

Placement is :meth:`TenantRegistry.shard_of
<repro.service.registry.TenantRegistry.shard_of>` -- a stable CRC-32 hash
of the tenant name -- so the supervisor, the HTTP front-end that routes
through it (:class:`repro.service.aio.AsyncServiceServer`) and any
external balancer agree on ownership without coordination.  Each tenant
lives in exactly one shard: reads and writes for it serialise there,
which keeps the single-process consistency story (snapshot-at-admission
reads, per-tenant write lock) intact per shard, and makes sharded
responses **bit-identical** to a single-process service holding the same
tenants.

Bootstrap and commit payloads travel as wire bytes, never pickled object
graphs: a shard rebuilds each tenant's interning dictionary, root snapshot
and recorded delta chain exactly (same integer ids), then replays live
commits forwarded by the supervisor (binary deltas from the Python API,
verbatim N-Triples bodies from the HTTP router).

**Read replicas** (:mod:`repro.service.replica`) relax the one-process
cap for *hot* tenants without giving up the single-owner write story: a
tenant registered with ``replicas=N`` has its bootstrap payload published
once into a ``multiprocessing.shared_memory`` segment that the owning
shard and N read-only replica processes all decode zero-copy, reads
round-robin across owner + live replicas, and every commit (still applied
only by the owner) is fanned out to the replicas as the O(delta) binary
commit record, applied in pipe order under the tenant write lock.  A dead
replica silently leaves the rotation (a ``RuntimeWarning`` notes the
degradation) and in-flight reads it lost are replayed on the owner --
replicated responses stay bit-identical to a single-process service.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import threading
import warnings
from concurrent.futures import Future
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.io.storage import (
    feedback_from_dicts,
    feedback_to_dicts,
    users_from_dicts,
    users_to_dicts,
)
from repro.kb import wire
from repro.kb.errors import KnowledgeBaseError
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase
from repro.profiles.feedback import FeedbackStore
from repro.profiles.user import User
from repro.service.errors import (
    RemoteInternalError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardError,
    UnknownTenantError,
    UnknownUserError,
    error_message as _error_message,
)
from repro.service.http import apply_commit, handle_commit, parse_recommend_payload
from repro.service.registry import TenantRegistry
from repro.service.replica import (
    _replica_main,
    create_shared_payload,
    decode_shared_payload,
    destroy_segment,
    encode_tenant_artefacts,
)
from repro.service.respcache import CachedResponse
from repro.service.service import RecommendationService, ServiceConfig, _resolve_future

#: One tenant's spawn payload: (name, kb payload, users JSON bytes,
#: feedback JSON bytes or None).  The kb payload is either one ``encode_kb``
#: buffer or a raw on-disk store's ``(base, commit log)`` pair
#: (:meth:`repro.io.store.BinaryKBStore.bootstrap_payload`) -- either way
#: everything here pickles as flat bytes.
_TenantPayload = Tuple[str, object, bytes, Optional[bytes]]

# -- error transport ---------------------------------------------------------------
#
# Exceptions cross the process boundary as (kind, message) pairs; both sides
# share this table so the supervisor re-raises the exact class the shard's
# service raised and the front-end maps it to the same status code it
# would in the single-process topology.

_ERROR_CLASSES: Dict[str, type] = {
    "unknown_tenant": UnknownTenantError,
    "unknown_user": UnknownUserError,
    "closed": ServiceClosedError,
    "overloaded": ServiceOverloadedError,
    "timeout": TimeoutError,
    "bad_request": ValueError,
    "kb": KnowledgeBaseError,
    "service": ServiceError,
    "internal": RemoteInternalError,
}


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, UnknownTenantError):
        return "unknown_tenant"
    if isinstance(exc, UnknownUserError):
        return "unknown_user"
    if isinstance(exc, ServiceClosedError):
        return "closed"
    if isinstance(exc, ServiceOverloadedError):
        return "overloaded"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, KeyError, json.JSONDecodeError)):
        return "bad_request"
    if isinstance(exc, KnowledgeBaseError):
        return "kb"
    if isinstance(exc, ServiceError):
        return "service"
    # Anything else is a shard-side bug: keep it distinguishable so the
    # front-end answers 500 (its last resort in every topology), not 400.
    return "internal"


def _raise_wire_error(kind: str, message: str) -> None:
    raise _ERROR_CLASSES.get(kind, ServiceError)(message)


# -- worker processes --------------------------------------------------------------


def _pipe_sender(conn) -> Callable[[tuple], None]:
    """A thread-safe ``conn.send`` that ignores a parent that is gone."""
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            try:
                conn.send(message)
            except (OSError, ValueError, BrokenPipeError):  # parent is gone
                pass

    return send


def _in_thread(fn: Callable[[], object], name: str) -> Future:
    """Run ``fn`` on a fresh daemon thread; returns the future of its result."""
    future: Future = Future()

    def run() -> None:
        try:
            future.set_result(fn())
        except BaseException as exc:
            future.set_exception(exc)

    threading.Thread(target=run, name=name, daemon=True).start()
    return future


def _answer(send: Callable[[tuple], None], request_id: int, future: Future) -> None:
    """Done-callback: send a resolved future's result (or error) back."""
    try:
        result = future.result()
        if isinstance(result, CachedResponse):
            # The live package stays in this process: the body bytes and
            # their ETag are all the router writes, unchanged.
            result = result._replace(package=None)
        send((request_id, "ok", result))
    except BaseException as exc:
        send((request_id, "error", _error_kind(exc), _error_message(exc)))


def _run_worker(
    conn,
    index: int,
    service: RecommendationService,
    boot: Callable[[Callable[[tuple], None]], Dict[str, Callable]],
) -> None:
    """The one receive loop of every worker process, shard and replica alike.

    ``boot(send)`` registers the process's tenants on ``service`` and
    returns its role's op table (op name -> ``handler(payload)``); every
    process also answers ``recommend``, ``stats``, ``tenants`` and
    ``shutdown``.  Protocol: the parent sends ``(op, request_id,
    payload)`` tuples; the process answers ``(request_id, "ok", result)``
    or ``(request_id, "error", kind, message)``.  The first message out is
    ``("ready", index, tenant_names)``, or ``("failed", index, kind,
    message)`` when ``boot`` raised.

    A handler that returns a :class:`~concurrent.futures.Future` is
    answered when it resolves: ``recommend`` rides the admission queue's
    done-callbacks (so requests batch while earlier ones score) and a
    slow commit runs on its own thread.  Every other handler runs inline,
    so pipe order is the order they take effect in.
    """
    send = _pipe_sender(conn)
    try:
        ops = boot(send)
    except BaseException as exc:
        send(("failed", index, _error_kind(exc), _error_message(exc)))
        service.close()
        return
    send(("ready", index, service.registry.names()))

    def recommend(payload) -> Future:
        # The body and ETag the single-process front-end would write.  The
        # response cache is process-local: this process owns its tenants'
        # version ids and population epoch, so no other process can
        # invalidate behind its back and no coherence traffic exists.
        tenant, user, k, old, new = parse_recommend_payload(payload)
        return service.recommend_cached_async(tenant, user, k, old, new)

    ops = {
        "recommend": recommend,
        "stats": lambda _payload: service.stats(),
        "tenants": lambda _payload: service.tenants(),
        **ops,
    }
    try:
        while True:
            try:
                op, request_id, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "shutdown":
                send((request_id, "ok", None))
                break
            try:
                handler = ops.get(op)
                if handler is None:
                    raise ValueError(f"unknown op: {op!r}")
                result = handler(payload)
            except BaseException as exc:
                send((request_id, "error", _error_kind(exc), _error_message(exc)))
                continue
            if isinstance(result, Future):
                result.add_done_callback(partial(_answer, send, request_id))
            else:
                send((request_id, "ok", result))
    finally:
        service.close()
        try:
            conn.close()
        except OSError:
            pass


def _shard_main(
    conn,
    shard_index: int,
    config: ServiceConfig,
    payloads: Sequence[_TenantPayload],
) -> None:
    """Entry point of one shard process (module-level: spawn-picklable).

    A shard owns its tenants: on top of the reads every worker answers it
    applies commits -- ``commit`` (an HTTP body with N-Triples changes)
    and ``commit_delta`` (binary wire deltas from the Python API) -- and
    publishes warm snapshots for joining replicas (``publish_tenant`` /
    ``unpublish_tenant``).
    """
    service = RecommendationService(config)
    # Where the on-disk dictionary cursor would be in a persisting
    # single-process service, this tracks the *replica* cursor: how many
    # terms of each tenant's dictionary the supervisor-side record stream
    # already covers.  Reads never intern into a chain dictionary (only
    # Graph.add under the commit write lock does), so the cursor only
    # moves inside commit().
    term_cursors: Dict[str, int] = {}
    # Segments this shard published for late-joining replicas, by tenant.
    # Held only between publish_tenant and unpublish_tenant (one pipe
    # round-trip: the supervisor unpublishes as soon as the joiner
    # signals it attached); anything left at shutdown is destroyed.
    published: Dict[str, object] = {}

    def boot(send) -> Dict[str, Callable]:
        for name, kb_bytes, users_bytes, feedback_bytes in payloads:
            # Lazy decode any payload shape: bootstrap builds the root
            # and the head pair's snapshots; middles rematerialise through
            # delta replay only if a request ever names them.
            if isinstance(kb_bytes, tuple) and kb_bytes and kb_bytes[0] == "shm":
                # Replicated tenant: the payload lives in a shared-memory
                # segment this shard decodes zero-copy, same as replicas.
                kb = decode_shared_payload(kb_bytes[1])
            elif isinstance(kb_bytes, tuple):
                from repro.io.store import decode_store_payload

                kb = decode_store_payload(*kb_bytes)
            else:
                kb = wire.decode_kb(kb_bytes, lazy=True)
            users = users_from_dicts(json.loads(users_bytes.decode("utf-8")))
            feedback = (
                feedback_from_dicts(json.loads(feedback_bytes.decode("utf-8")))
                if feedback_bytes is not None
                else None
            )
            service.add_tenant(name, kb, users, feedback)
            term_cursors[name] = (
                len(kb.first().graph.dictionary) if len(kb) else 0
            )
        return {
            "commit": lambda payload: _in_thread(
                partial(commit, payload, delta=False), "repro-shard-commit"
            ),
            "commit_delta": lambda payload: _in_thread(
                partial(commit, payload, delta=True), "repro-shard-commit"
            ),
            "publish_tenant": publish_tenant,
            "unpublish_tenant": unpublish_tenant,
            "health": lambda _payload: {
                "status": "ok", "shard": shard_index, "tenants": len(service.registry),
            },
        }

    # Commits run off the receive loop (see _in_thread above): a slow
    # commit (parse + intern + diff) for one tenant must not
    # head-of-line-block admission of other tenants' reads on this shard
    # -- single-process, a commit only holds its own tenant's write lock,
    # and the sharded topology keeps that property.  Same-tenant commits
    # still serialise on the write lock inside apply_commit.
    def commit(payload, delta: bool) -> Dict:
        want_record = isinstance(payload, dict) and bool(
            payload.pop("_want_record", False)
        )

        def apply() -> Dict:
            if not delta:  # HTTP-shaped body, N-Triples changes
                return handle_commit(service, payload)
            # binary wire deltas from the Python API
            added = wire.decode_triples(payload["added"]) if payload.get("added") else []
            deleted = (
                wire.decode_triples(payload["deleted"]) if payload.get("deleted") else []
            )
            return apply_commit(
                service,
                payload["tenant"],
                added,
                deleted,
                payload.get("version_id"),
                payload.get("metadata") or {},
            )

        tenant_name = payload.get("tenant") if isinstance(payload, dict) else None
        if not (want_record and tenant_name):
            return apply()
        # Replicated tenant: encode the committed version as an O(delta)
        # commit record under the same write-lock hold that applied it,
        # so the record stream carries every commit exactly once, in
        # order, with the dictionary growth [cursor, len(dictionary)) no
        # other commit can interleave into.
        tenant = service.tenant(tenant_name)
        with tenant.write_lock:
            result = apply()
            dictionary = tenant.kb.first().graph.dictionary
            cursor = term_cursors.get(tenant_name, len(dictionary))
            result["_record"] = wire.encode_commit(tenant.kb.latest(), dictionary, cursor)
            term_cursors[tenant_name] = len(dictionary)
        return result

    def publish_tenant(payload) -> Dict:
        # Warm late-join handoff: re-publish this tenant's *current*
        # chain -- base plus every commit applied so far -- together
        # with the artefact caches its serving already paid for, into
        # a fresh shared-memory segment a joining replica bootstraps
        # from.  Encoding under the write lock pins one consistent
        # chain state; the supervisor holds the tenant's commit lock
        # across publish + spawn, so no commit record can slip between
        # the published snapshot and the joiner's record stream.
        tenant_name = payload["tenant"]
        tenant = service.tenant(tenant_name)
        with tenant.write_lock:
            base = wire.encode_kb(tenant.kb)
            artefacts = encode_tenant_artefacts(tenant.kb)
            generation = len(tenant.kb)
            # The snapshot carries the whole dictionary, so the record
            # stream resumes from here.  Commits made while the tenant
            # had no replicas never advanced the cursor; without this
            # resync their interned terms would be double-counted in
            # the next record's terms_before and poison the joiner.
            # With replicas already live this is a no-op: every
            # record-carrying commit left the cursor at len(dict).
            if len(tenant.kb):
                term_cursors[tenant_name] = len(tenant.kb.first().graph.dictionary)
        segment = create_shared_payload(base, artefacts)
        stale = published.pop(tenant_name, None)
        if stale is not None:  # pragma: no cover - supervisor lost track
            destroy_segment(stale)
        published[tenant_name] = segment
        return {
            "segment": segment.name,
            "generation": generation,
            "artefact_bytes": len(artefacts),
        }

    def unpublish_tenant(payload) -> Dict:
        # The joiner holds its mapping (or failed): unlink now.  Same
        # hygiene as start() -- the mapping outlives the name, and a
        # SIGKILL'd topology leaves nothing behind in /dev/shm.
        segment = published.pop(payload["tenant"], None)
        if segment is not None:
            destroy_segment(segment)
        return {"unpublished": segment is not None}

    try:
        _run_worker(conn, shard_index, service, boot)
    finally:
        for segment in published.values():
            destroy_segment(segment)


# -- supervisor side ---------------------------------------------------------------
#
# Caller-side futures are resolved through _resolve_future: the HTTP
# front-end cancels a read that misses request_timeout_s, its answer still
# arrives later, and setting a cancelled future would raise in the pipe's
# reader thread and silence that pipe.


class _ShardClient:
    """Parent-side handle of one worker process: pipe, futures, reader thread.

    Used for shards and replicas alike -- both speak the same protocol;
    ``label`` is what error messages and degradation warnings call the
    process.
    """

    def __init__(self, index: int, process, conn, label: Optional[str] = None) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.label = label or f"shard {index}"
        self.ready = threading.Event()
        #: Set the moment a replica holds its shared-memory mapping (the
        #: "attached" pipe signal) -- the publisher's cue to unlink the
        #: segment.  Implied by ready/failed/dead so waiters never hang.
        self.attached = threading.Event()
        self.failure: Optional[str] = None
        self.tenant_names: List[str] = []
        # A poisoned client is alive but no longer trustworthy (a replica
        # that failed to apply a commit record would serve stale reads);
        # the supervisor takes it out of the read rotation.
        self.poisoned = False
        #: Set once the supervisor has warned about this client's loss.
        self.degradation_warned = False
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count()
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-shard-client-{index}", daemon=True
        )
        self._reader.start()

    # The reader thread is the only consumer of the pipe; it resolves the
    # matching future for every response, so any number of caller threads
    # can have requests in flight over the one connection.
    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            head = message[0]
            if head == "attached":
                self.attached.set()
                continue
            if head == "ready":
                self.tenant_names = list(message[2])
                self.attached.set()
                self.ready.set()
                continue
            if head == "failed":
                self.failure = f"{message[2]}: {message[3]}"
                self.attached.set()
                self.ready.set()
                continue
            request_id = head
            with self._pending_lock:
                future = self._pending.pop(request_id, None)
            if future is None:
                continue  # response for an abandoned (timed-out) request
            if message[1] == "ok":
                _resolve_future(future, message[2])
            else:
                _, _, kind, text = message
                try:
                    _raise_wire_error(kind, text)
                except BaseException as exc:
                    _resolve_future(future, error=exc)
        self._mark_dead()

    @property
    def dead(self) -> bool:
        """True once the pipe is gone (process exit or close)."""
        return self._dead

    def _mark_dead(self) -> None:
        self._dead = True
        self.attached.set()
        self.ready.set()
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            _resolve_future(
                future, error=ShardError(f"{self.label} died with requests in flight")
            )

    def poison(self) -> None:
        """Take the client out of rotation without killing the process."""
        self.poisoned = True

    def submit(self, op: str, payload) -> Future:
        if self._dead:
            raise ShardError(f"{self.label} is not running")
        future: Future = Future()
        request_id = next(self._ids)
        with self._pending_lock:
            self._pending[request_id] = future
        try:
            with self._send_lock:
                self.conn.send((op, request_id, payload))
        except (OSError, ValueError, BrokenPipeError):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ShardError(f"{self.label} pipe is closed") from None
        # Close the race with _mark_dead(): the shard may have died between
        # the _dead check above and registering the future, in which case
        # the dead-sweep already ran and nothing would ever resolve it (the
        # first write into a half-closed pipe does not reliably raise).
        if self._dead:
            with self._pending_lock:
                abandoned = self._pending.pop(request_id, None)
            if abandoned is not None:
                _resolve_future(
                    abandoned,
                    error=ShardError(f"{self.label} died with requests in flight"),
                )
        return future

    def request(self, op: str, payload, timeout: Optional[float]):
        return self.submit(op, payload).result(timeout=timeout)

    def close(self, timeout: Optional[float]) -> None:
        if not self._dead:
            try:
                self.request("shutdown", None, timeout=timeout)
            except Exception:
                pass  # already dying; the join/terminate below reaps it
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:
            pass


class ShardSupervisor:
    """N shard processes behind one tenant-hash router (the Python API).

    Usage::

        supervisor = ShardSupervisor(shards=4, config=ServiceConfig(...))
        supervisor.add_tenant("acme", kb, users)   # before start()
        supervisor.start()
        package = supervisor.recommend("acme", "u3")     # JSON-ready dict
        supervisor.commit_changes("acme", added=[...])   # binary delta wire
        supervisor.close()

    Tenants are registered *before* :meth:`start`: each is wire-encoded
    once and shipped to its owning shard as part of the spawn payload.
    ``recommend`` returns the package as a JSON-ready dict (the same
    layout :func:`repro.io.storage.package_to_dict` produces, decoded
    from the body the shard serialised), because the package object
    itself lives in the shard process.

    The HTTP front-end calls the same five methods on a supervisor as on
    a single-process service: :meth:`recommend_cached_async`,
    :meth:`commit_request`, :meth:`stats`, :meth:`tenants` and
    :meth:`health`.

    Results are bit-identical to a single-process
    :class:`~repro.service.service.RecommendationService` over the same
    tenants: routing only decides *where* a tenant's single-owner service
    runs, never what it computes.

    A tenant registered with ``replicas=N`` (or every tenant, via the
    constructor's ``replicas``) additionally gets N read-only replica
    processes that bootstrap zero-copy from one shared-memory segment
    (:mod:`repro.service.replica`): its reads round-robin across owner +
    live replicas, its commits still go only to the owner and are fanned
    out to replicas as O(delta) commit records.  Dead replicas degrade
    the tenant to the remaining processes (eventually owner-only) with a
    ``RuntimeWarning`` instead of failing requests.
    """

    def __init__(
        self,
        shards: int = 2,
        config: ServiceConfig | None = None,
        start_timeout_s: float = 120.0,
        replicas: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.shards = shards
        self.replicas = replicas  # default per-tenant replica count
        self.config = config or ServiceConfig()
        self._start_timeout_s = start_timeout_s
        self._payloads: List[List[_TenantPayload]] = [[] for _ in range(shards)]
        self._tenant_shard: Dict[str, int] = {}
        self._clients: List[_ShardClient] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._started = False
        self._closed = False
        # Replica plane state, all keyed by tenant name.
        self._replica_counts: Dict[str, int] = {}
        self._replica_clients: Dict[str, List[_ShardClient]] = {}
        self._segments: Dict[str, object] = {}  # SharedMemory until all attach
        self._read_cursors: Dict[str, "itertools.count"] = {}
        self._commit_locks: Dict[str, threading.Lock] = {}
        self._generations: Dict[str, int] = {}
        # Users/feedback JSON bytes per tenant, kept past start() so a
        # replica can join any tenant at runtime (the KB itself is
        # re-published by the owner; these few KB of JSON are the only
        # boot state the supervisor must retain).
        self._tenant_boot: Dict[str, Tuple[bytes, Optional[bytes]]] = {}
        # Monotonic replica index per tenant: a respawned replica gets a
        # fresh index (and label), never a dead one's.
        self._replica_indices: Dict[str, "itertools.count"] = {}

    # -- tenants (pre-start) -------------------------------------------------

    def add_tenant(
        self,
        name: str,
        kb: VersionedKnowledgeBase,
        users: Iterable[User] = (),
        feedback: FeedbackStore | None = None,
        replicas: int | None = None,
    ) -> int:
        """Register a tenant; returns its shard index.

        Must be called before :meth:`start` -- the tenant is serialised to
        the binary wire format now and travels with its shard's spawn
        payload.  ``replicas`` overrides the supervisor-wide default read
        replica count for this tenant.
        """
        return self._register(name, wire.encode_kb(kb), users, feedback, replicas)

    def add_tenant_encoded(
        self,
        name: str,
        kb_payload: "bytes | Tuple[bytes, bytes]",
        users: Iterable[User] = (),
        feedback: FeedbackStore | None = None,
        replicas: int | None = None,
    ) -> int:
        """Register a tenant from already-encoded KB bytes; returns its shard.

        ``kb_payload`` is either one :func:`repro.kb.wire.encode_kb` buffer
        or a binary store's raw ``(base, commit log)`` pair
        (:meth:`repro.io.store.BinaryKBStore.bootstrap_payload`).  This is
        the cold-start fast path of ``python -m repro serve --shards``: the
        router ships the on-disk bytes verbatim and never decodes or
        re-encodes a tenant it only routes for.  With replicas the same
        bytes are published once in shared memory and every process of the
        tenant decodes them from there.
        """
        if isinstance(kb_payload, tuple):
            base, log = kb_payload
            kb_payload = (bytes(base), bytes(log))
        else:
            kb_payload = bytes(kb_payload)
        return self._register(name, kb_payload, users, feedback, replicas)

    def _register(
        self,
        name: str,
        kb_payload,
        users: Iterable[User],
        feedback: FeedbackStore | None,
        replicas: int | None = None,
    ) -> int:
        if self._started:
            raise ServiceError("tenants must be registered before start()")
        if not name:
            raise ServiceError("tenant name must be non-empty")
        if name in self._tenant_shard:
            raise ServiceError(f"duplicate tenant name: {name!r}")
        n_replicas = self.replicas if replicas is None else replicas
        if n_replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {n_replicas}")
        shard = TenantRegistry.shard_of(name, self.shards)
        payload: _TenantPayload = (
            name,
            kb_payload,
            json.dumps(users_to_dicts(list(users))).encode("utf-8"),
            (
                json.dumps(feedback_to_dicts(feedback)).encode("utf-8")
                if feedback is not None
                else None
            ),
        )
        self._payloads[shard].append(payload)
        self._tenant_shard[name] = shard
        self._tenant_boot[name] = (payload[2], payload[3])
        # Every tenant gets the replica-routing scaffolding up front --
        # add_replica() can turn any tenant replicated at runtime.
        self._read_cursors[name] = itertools.count()
        self._commit_locks[name] = threading.Lock()
        self._replica_indices[name] = itertools.count(n_replicas)
        if n_replicas:
            self._replica_counts[name] = n_replicas
        return shard

    def shard_of(self, tenant_name: str) -> int:
        """The shard index owning ``tenant_name`` (raises when unknown)."""
        shard = self._tenant_shard.get(tenant_name)
        if shard is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant_name!r} "
                f"(have: {', '.join(sorted(self._tenant_shard)) or 'none'})"
            )
        return shard

    def tenant_names(self) -> List[str]:
        """All registered tenant names, sorted."""
        return sorted(self._tenant_shard)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Spawn shard + replica processes and wait until every one is ready."""
        if self._started:
            raise ServiceError("supervisor already started")
        if self._closed:
            raise ServiceClosedError("supervisor is closed")
        # Publish replicated tenants' payloads into shared memory first and
        # swap the spawn payload for a segment reference, so the owner
        # shard and all its replicas decode the very same bytes and the
        # snapshot never crosses a pipe at all.
        replica_specs: List[Tuple[str, str, bytes, Optional[bytes], int]] = []
        for shard_payloads in self._payloads:
            for i, (name, kb_payload, users_b, feedback_b) in enumerate(shard_payloads):
                n_replicas = self._replica_counts.get(name)
                if not n_replicas:
                    continue
                segment = create_shared_payload(kb_payload)
                self._segments[name] = segment
                shard_payloads[i] = (name, ("shm", segment.name), users_b, feedback_b)
                replica_specs.append(
                    (name, segment.name, users_b, feedback_b, n_replicas)
                )
        for index in range(self.shards):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_shard_main,
                args=(child_conn, index, self.config, self._payloads[index]),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # the child owns its end now
            self._clients.append(_ShardClient(index, process, parent_conn))
        for name, segment_name, users_b, feedback_b, n_replicas in replica_specs:
            clients: List[_ShardClient] = []
            for r_index in range(n_replicas):
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                process = self._ctx.Process(
                    target=_replica_main,
                    args=(
                        child_conn, name, r_index, segment_name,
                        self.config, users_b, feedback_b,
                    ),
                    name=f"repro-replica-{name}-{r_index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                clients.append(
                    _ShardClient(
                        r_index, process, parent_conn,
                        label=f"replica {r_index} of tenant {name!r}",
                    )
                )
            self._replica_clients[name] = clients
        self._started = True
        all_clients = list(self._clients)
        for clients in self._replica_clients.values():
            all_clients.extend(clients)
        for client in all_clients:
            if not client.ready.wait(timeout=self._start_timeout_s):
                self.close()
                raise ShardError(
                    f"{client.label} did not become ready within "
                    f"{self._start_timeout_s:.0f}s"
                )
            if client.failure is not None:
                failure = client.failure
                self.close()
                raise ShardError(f"{client.label} failed to bootstrap: {failure}")
            if client.dead:
                label = client.label
                self.close()
                raise ShardError(f"{label} died before becoming ready")
        # Everyone attached: unlink the segments now.  POSIX keeps the
        # mappings alive for attached processes, so an unlinked segment
        # still serves every bootstrap that already happened -- and a
        # SIGKILL'd topology leaves nothing behind in /dev/shm.
        self._release_segments()
        # The payloads have been shipped; holding a serialized replica of
        # every tenant's KB in the router process would double resident
        # memory for nothing (tenants cannot be added after start()).
        self._payloads = [[] for _ in range(self.shards)]
        return self

    def _release_segments(self) -> None:
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            destroy_segment(segment)

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Shut every replica and shard down, reap processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for clients in self._replica_clients.values():
            for client in clients:
                client.close(timeout)
        self._replica_clients = {}
        for client in self._clients:
            client.close(timeout)
        self._clients = []
        self._release_segments()

    def __enter__(self) -> "ShardSupervisor":
        return self if self._started else self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request routing -----------------------------------------------------

    def _client_for(self, tenant_name: str) -> _ShardClient:
        if not self._started or self._closed:
            raise ServiceClosedError("shard supervisor is not running")
        return self._clients[self.shard_of(tenant_name)]

    def _live_replicas(self, tenant_name: str) -> List[_ShardClient]:
        """The tenant's replicas still fit for reads, warning once per loss.

        A replica leaves the rotation when its process died or when it
        was poisoned (failed to apply a commit record, so its chain may
        be stale).  Losing one degrades the tenant -- reads fall back to
        the remaining processes, eventually owner-only -- and that is
        logged as a ``RuntimeWarning`` exactly once per replica.
        """
        live: List[_ShardClient] = []
        for client in self._replica_clients.get(tenant_name, ()):
            if client.dead or client.poisoned:
                if not client.degradation_warned:
                    client.degradation_warned = True
                    why = "died" if client.dead else "missed a commit record"
                    warnings.warn(
                        f"{client.label} {why}; reads for {tenant_name!r} degrade "
                        "to the remaining processes (owner-only at worst)",
                        RuntimeWarning,
                    )
            else:
                live.append(client)
        return live

    def _submit_read(
        self, client: _ShardClient, owner: _ShardClient, payload: Dict
    ) -> "Future[CachedResponse]":
        """Submit a read on ``client``, transparently retrying on the owner.

        Reads are idempotent and replicas are bit-identical to the owner,
        so a read lost to a dying replica is simply replayed on the owner
        -- no request is lost and the caller never sees the failure.
        """
        if client is owner:
            return client.submit("recommend", payload)
        try:
            inner = client.submit("recommend", payload)
        except ShardError:
            self._live_replicas(payload["tenant"])  # emit degradation warning
            return owner.submit("recommend", payload)
        outer: Future = Future()

        def _relay(source: Future, sink: Future) -> None:
            exc = source.exception()
            if exc is None:
                _resolve_future(sink, source.result())
            else:
                _resolve_future(sink, error=exc)

        def _done(f: Future) -> None:
            exc = f.exception()
            if not isinstance(exc, ShardError):
                _relay(f, outer)
                return
            self._live_replicas(payload["tenant"])  # emit degradation warning
            try:
                retry = owner.submit("recommend", payload)
            except BaseException as retry_exc:
                _resolve_future(outer, error=retry_exc)
                return
            retry.add_done_callback(lambda g: _relay(g, outer))

        inner.add_done_callback(_done)
        return outer

    def recommend_cached_async(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
    ) -> "Future[CachedResponse]":
        """Admit one read on the owner or a replica, as a future.

        The same call as
        :meth:`RecommendationService.recommend_cached_async
        <repro.service.service.RecommendationService.recommend_cached_async>`:
        the future carries the body bytes and strong ETag the serving
        process wrote, so the front-end relays them unchanged.  Only
        ``package`` is ``None``: the live package stays in that process.
        """
        payload = {"tenant": tenant_name, "user": user_id}
        if k is not None:
            payload["k"] = k
        if old_id is not None:
            payload["old"] = old_id
        if new_id is not None:
            payload["new"] = new_id
        owner = self._client_for(tenant_name)
        replicas = self._live_replicas(tenant_name)
        if not replicas:
            return owner.submit("recommend", payload)
        pool = [owner] + replicas
        client = pool[next(self._read_cursors[tenant_name]) % len(pool)]
        return self._submit_read(client, owner, payload)

    def recommend(
        self,
        tenant_name: str,
        user_id: str,
        k: int | None = None,
        old_id: str | None = None,
        new_id: str | None = None,
        timeout: float | None = None,
    ) -> Dict:
        """Recommend for one user (blocking); returns the package as a dict."""
        future = self.recommend_cached_async(tenant_name, user_id, k, old_id, new_id)
        response = future.result(
            timeout=self.config.request_timeout_s if timeout is None else timeout
        )
        return json.loads(response.body)

    def commit_changes(
        self,
        tenant_name: str,
        added: Sequence[Triple] = (),
        deleted: Sequence[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> Dict:
        """Commit a binary-delta evolution step on the owning shard.

        The triples cross the process boundary in the wire format's
        self-contained delta payload -- no N-Triples text, no pickled
        graphs -- and the shard applies them under the tenant's write lock.

        This is the *serving* write path, so it follows the HTTP
        ``/commit`` contract rather than the raw
        ``VersionedKnowledgeBase.commit_changes`` one: empty commits and
        duplicate version ids are rejected with ``ValueError`` (the raw KB
        API allows metadata-only commits and raises ``VersionError`` for
        duplicates), and the result is the JSON-shaped dict the HTTP
        endpoint returns, not a ``Version`` object.
        """
        payload = {
            "tenant": tenant_name,
            "added": wire.encode_triples(list(added)) if added else None,
            "deleted": wire.encode_triples(list(deleted)) if deleted else None,
            "version_id": version_id,
            "metadata": metadata or {},
        }
        return self._commit("commit_delta", tenant_name, payload, timeout)

    def _commit(
        self, op: str, tenant_name: str, payload: Dict, timeout: Optional[float]
    ) -> Dict:
        """Apply a commit on the owner and bump the tenant's replicas.

        Writes stay single-owner.  For a replicated tenant the owner is
        asked (``_want_record``) to return the committed version as an
        O(delta) binary commit record, and the record is forwarded to
        every live replica *inside the per-tenant commit lock* -- so
        records hit each replica pipe in commit order, and the replica's
        inline application makes pipe order the cutover order: once this
        method returns generation G, any read routed anywhere scores
        G's head pair (or newer), exactly the single-process contract.
        A replica that fails to apply its record is poisoned out of the
        read rotation rather than serving stale data.
        """
        owner = self._client_for(tenant_name)
        lock = self._commit_locks.get(tenant_name)
        if lock is None:  # registered before the replica plane existed
            return owner.request(op, payload, timeout=timeout)
        with lock:
            # Checked *inside* the lock: add_replica() holds it across
            # publish + spawn, so a tenant can never commit between the
            # snapshot a joiner bootstraps from and the record stream it
            # rides afterwards -- even on the 0 -> 1 replica transition.
            if not self._replica_counts.get(tenant_name):
                return owner.request(op, payload, timeout=timeout)
            payload = dict(payload)
            payload["_want_record"] = True
            result = owner.request(op, payload, timeout=timeout)
            record = result.pop("_record", None)
            generation = len(result.get("versions") or ())
            if generation:
                self._generations[tenant_name] = generation
            if record is not None:
                for client in self._live_replicas(tenant_name):
                    try:
                        future = client.submit(
                            "apply_record",
                            {"tenant": tenant_name, "record": record,
                             "generation": generation},
                        )
                    except ShardError:
                        continue  # died since the liveness check; degrades
                    future.add_done_callback(
                        lambda f, client=client: self._record_applied(f, client)
                    )
        return result

    def _record_applied(self, future: Future, client: _ShardClient) -> None:
        if future.exception() is None:
            return
        # The replica's chain no longer matches the owner's; serving from
        # it would break bit-identity.  Poison it -- the next routing pass
        # warns and degrades.
        client.poison()

    # -- elastic replicas (runtime join / leave / respawn) ---------------------

    def replica_count(self, tenant_name: str) -> int:
        """The tenant's *configured* replica count (0 for never-replicated)."""
        self.shard_of(tenant_name)  # raises UnknownTenantError
        return self._replica_counts.get(tenant_name, 0)

    def _require_running(self) -> None:
        if not self._started or self._closed:
            raise ServiceClosedError("shard supervisor is not running")

    def add_replica(self, tenant_name: str) -> int:
        """Spawn one warm read replica for ``tenant_name`` at runtime.

        The owner re-publishes its *current* chain -- base plus every
        commit applied so far -- together with its warmed artefact caches
        into a fresh shared-memory segment; the joiner bootstraps from it
        with its engine caches pre-seeded, so its first request skips the
        cold Brandes + semantic price.  Holding the tenant's commit lock
        across publish + spawn + registration makes the cutover exact:
        every commit is either in the published snapshot or in the record
        stream the new replica receives, never both, never neither.
        Returns the new configured replica count.
        """
        self._require_running()
        self.shard_of(tenant_name)
        with self._commit_locks[tenant_name]:
            client = self._join_replica(tenant_name)
            self._replica_clients.setdefault(tenant_name, []).append(client)
            count = self._replica_counts.get(tenant_name, 0) + 1
            self._replica_counts[tenant_name] = count
        return count

    def retire_replica(self, tenant_name: str, timeout: float | None = 10.0) -> int:
        """Shut one replica of ``tenant_name`` down; returns the new count.

        The newest replica leaves the rotation under the commit lock (so
        no commit record is ever addressed to it after removal) and is
        then shut down gracefully outside the lock.  Reads already in
        flight on it either complete or are transparently replayed on the
        owner by the routing layer -- retiring loses no requests.
        """
        self._require_running()
        self.shard_of(tenant_name)
        with self._commit_locks[tenant_name]:
            clients = self._replica_clients.get(tenant_name) or []
            if not clients:
                raise ServiceError(
                    f"tenant {tenant_name!r} has no replicas to retire"
                )
            client = clients.pop()
            count = max(0, self._replica_counts.get(tenant_name, 1) - 1)
            if count:
                self._replica_counts[tenant_name] = count
            else:
                # Back to the non-replicated shape: stats/health stop
                # reporting a replica block for this tenant entirely.
                self._replica_counts.pop(tenant_name, None)
        client.close(timeout)
        return count

    def respawn_dead_replicas(self, tenant_name: str) -> int:
        """Replace every dead or poisoned replica of ``tenant_name``.

        Instead of degrading forever, each lost replica is swapped for a
        freshly joined one (same warm handoff as :meth:`add_replica`) --
        the configured count is unchanged, the live count recovers.  The
        replacement is a new client object, so the warn-once degradation
        flag resets with it: a second death warns again.  Returns how
        many replicas were respawned.
        """
        self._require_running()
        self.shard_of(tenant_name)
        lost: List[_ShardClient] = []
        respawned = 0
        with self._commit_locks[tenant_name]:
            clients = self._replica_clients.get(tenant_name)
            if not clients:
                return 0
            # Emit any pending degradation warning before the dead client
            # objects (which carry the warn-once flags) are dropped.
            self._live_replicas(tenant_name)
            lost = [c for c in clients if c.dead or c.poisoned]
            for client in lost:
                clients.remove(client)
            for _client in lost:
                try:
                    clients.append(self._join_replica(tenant_name))
                except (ShardError, ServiceError):
                    # Owner unreachable or spawn failed: configured stays
                    # above live, so /alerts keeps reporting the tenant
                    # degraded and the next autoscale tick retries.
                    break
                respawned += 1
        for client in lost:
            client.close(5.0)
        return respawned

    def _join_replica(self, tenant_name: str) -> _ShardClient:
        """Publish the owner's live payload and boot one replica from it.

        Caller holds the tenant's commit lock.  The segment lives exactly
        as long as the joiner needs its name: the replica signals
        "attached" before it starts decoding, and the owner unlinks in
        response -- the same attach-then-unlink hygiene as :meth:`start`,
        so a SIGKILL at any point leaves nothing in ``/dev/shm``.
        """
        owner = self._client_for(tenant_name)
        users_b, feedback_b = self._tenant_boot[tenant_name]
        r_index = next(self._replica_indices[tenant_name])
        info = owner.request(
            "publish_tenant", {"tenant": tenant_name},
            timeout=self._start_timeout_s,
        )
        client: Optional[_ShardClient] = None
        attached = False
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_replica_main,
                args=(
                    child_conn, tenant_name, r_index, info["segment"],
                    self.config, users_b, feedback_b,
                ),
                name=f"repro-replica-{tenant_name}-{r_index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            client = _ShardClient(
                r_index, process, parent_conn,
                label=f"replica {r_index} of tenant {tenant_name!r}",
            )
            attached = client.attached.wait(timeout=self._start_timeout_s)
        finally:
            try:
                owner.request(
                    "unpublish_tenant", {"tenant": tenant_name}, timeout=30.0
                )
            except Exception:
                pass  # owner dying; its exit destroys the segment

        def _fail(why: str) -> None:
            label = client.label
            client.close(5.0)
            raise ShardError(f"{label} {why}")

        if not attached:
            _fail(f"did not attach within {self._start_timeout_s:.0f}s")
        if not client.ready.wait(timeout=self._start_timeout_s):
            _fail(f"did not become ready within {self._start_timeout_s:.0f}s")
        if client.failure is not None:
            _fail(f"failed to bootstrap: {client.failure}")
        if client.dead:
            _fail("died before becoming ready")
        generation = info.get("generation")
        if generation:
            self._generations[tenant_name] = max(
                self._generations.get(tenant_name, 0), int(generation)
            )
        return client

    def commit_request(self, payload: Dict) -> Dict:
        """Apply one ``POST /commit`` body on its tenant's owning shard.

        The body is forwarded verbatim, so the shard performs exactly the
        validation and N-Triples parsing a single-process service would;
        replicated tenants then get the commit record like any commit.
        """
        tenant_name = payload.get("tenant")
        if not tenant_name:
            raise ValueError("commit requires 'tenant'")
        payload.pop("_want_record", None)  # internal flag, never client-set
        return self._commit(
            "commit", tenant_name, payload, self.config.request_timeout_s
        )

    # -- introspection -------------------------------------------------------

    def _fanout(self, op: str, timeout: float | None = 30.0) -> List:
        if not self._started or self._closed:
            raise ServiceClosedError("shard supervisor is not running")
        futures = [client.submit(op, None) for client in self._clients]
        return [future.result(timeout=timeout) for future in futures]

    def tenants(self) -> List[Dict[str, object]]:
        """Tenant summaries from every shard, sorted by name."""
        merged: List[Dict[str, object]] = []
        for summaries in self._fanout("tenants"):
            merged.extend(summaries)
        return sorted(merged, key=lambda summary: str(summary.get("name", "")))

    def stats(self) -> Dict[str, object]:
        """Per-shard admission counters plus the tenant -> shard map."""
        per_shard = self._fanout("stats")
        stats: Dict[str, object] = {
            "shards": {
                f"shard_{index}": stats for index, stats in enumerate(per_shard)
            },
            "tenant_shards": dict(sorted(self._tenant_shard.items())),
            "workers_per_shard": self.config.workers,
        }
        if self._replica_counts:
            stats["tenant_replicas"] = {
                name: {
                    "configured": count,
                    "live": len(self._live_replicas(name)),
                    "generation": self._generations.get(name),
                }
                for name, count in sorted(self._replica_counts.items())
            }
        return stats

    def health(self) -> Dict[str, object]:
        """Aggregate liveness: every shard must answer; replicas may degrade."""
        responses = self._fanout("health")
        health: Dict[str, object] = {
            "status": "ok",
            "shards": len(responses),
            "tenants": sum(int(r.get("tenants", 0)) for r in responses),
        }
        if self._replica_counts:
            health["replicas"] = {
                "configured": sum(self._replica_counts.values()),
                "live": sum(
                    len(self._live_replicas(name)) for name in self._replica_counts
                ),
            }
        return health
