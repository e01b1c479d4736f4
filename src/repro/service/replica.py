"""Zero-copy read replicas: scale one hot tenant's reads across cores.

The sharded plane (:mod:`repro.service.sharding`) pins each tenant to
exactly one process, so a single viral tenant is capped at one core no
matter how many shards run.  This module is the read-side escape hatch:

* the supervisor publishes the tenant's store payload -- the exact
  ``(base, log)`` bytes a :class:`~repro.io.store.BinaryKBStore` holds on
  disk, packed by :func:`repro.kb.wire.pack_store_payload_into` -- into
  **one** ``multiprocessing.shared_memory`` segment;
* the owning shard *and* every replica attach to that segment and decode
  it lazily (:func:`repro.io.store.decode_store_payload` over sub-views
  of the segment) -- no pickling, no N-Triples re-parse, and no
  per-process serialized copy of the snapshot travelling through spawn
  pipes;
* replicas are **read-only**: commits keep their single owner, and the
  supervisor bumps each replica with the O(delta) commit record
  (``repro.kb.wire.encode_commit``, the ``commits.rpl`` format) the owner
  produced, applied atomically under the tenant write lock via
  ``commit_recorded`` -- so a replica's chain stays bit-identical to the
  owner's, term ids included.

The segment is unlinked by the supervisor as soon as every process has
attached: POSIX keeps the mapping alive for attached processes, so even a
``SIGKILL``'d topology leaves nothing behind in ``/dev/shm``.

A replica process runs the same receive loop as a shard (one duplex
pipe, future-multiplexed ``(op, request_id, payload)`` messages) with its
own op table: commit ops are rejected (read-only), and the extra
``apply_record`` op applies a forwarded commit record *inline on the
receive loop* -- pipe order is the cutover order, so any read the
supervisor routes here after a commit returned is admitted on a
generation >= that commit's.
"""

from __future__ import annotations

import json
from multiprocessing import shared_memory
from typing import Optional

from repro.graphtools.betweenness import normalize_betweenness
from repro.io.storage import feedback_from_dicts, users_from_dicts
from repro.io.store import decode_store_payload
from repro.kb import wire
from repro.kb.errors import VersionError
from repro.measures.semantic import CENTRALITY_KEY, RC_KEY
from repro.measures.structural import BETWEENNESS_KEY, RAW_BETWEENNESS_KEY, class_graph
from repro.service.errors import ServiceError
from repro.service.service import RecommendationService, ServiceConfig


# -- shared-memory plumbing ---------------------------------------------------------


def create_shared_payload(kb_payload, artefacts: bytes = b"") -> shared_memory.SharedMemory:
    """Publish a tenant's kb payload into a fresh shared-memory segment.

    ``kb_payload`` is either one ``encode_kb`` buffer or a store's raw
    ``(base, log)`` pair; either way it is packed in place as one framed
    :func:`repro.kb.wire.pack_store_payload_into` container.  A warm
    handoff additionally passes its :func:`repro.kb.wire.encode_artefacts`
    bytes, appended as the container's optional third frame.  The caller
    owns the returned segment and must ``close()`` + ``unlink()`` it once
    every consumer has attached.
    """
    if isinstance(kb_payload, tuple):
        base, log = kb_payload
    else:
        base, log = kb_payload, b""
    size = wire.store_payload_size(len(base), len(log), len(artefacts))
    segment = shared_memory.SharedMemory(create=True, size=size)
    wire.pack_store_payload_into(segment.buf, base, log, artefacts)
    return segment


def attach_shared_payload(name: str) -> shared_memory.SharedMemory:
    """Attach to a published segment without registering as its owner.

    On CPython < 3.13 ``SharedMemory`` has no ``track`` parameter and the
    attaching process registers the segment with its *own* resource
    tracker, which would destroy (and warn about) a segment the
    supervisor still owns when this process exits.  Suppressing the
    registration during attach keeps the single-owner story: the
    supervisor created it, the supervisor unlinks it.  (Unregistering
    *after* attach is racy: several attachers feed the same shared
    tracker process, and the second unregister KeyErrors in it.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        # shared_memory.py reads the tracker as a module attribute, so a
        # scoped no-op swap cleanly skips the registration call.
        real_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = real_register


def decode_shared_payload(segment_name: str, on_attached=None):
    """Attach to a segment, lazily decode the chain out of it, detach.

    The decode path reads term tables and key arrays through sub-views of
    the segment (``wire._Reader`` slices any bytes-like buffer) and copies
    what it keeps into process-local structures, so the mapping can close
    as soon as the chain is built: zero-copy bootstrap, no lingering
    reference into shared memory.

    ``on_attached``, when given, is called as soon as the mapping exists
    (before the decode starts): the publisher may unlink the segment the
    moment every consumer holds a mapping, and a late joiner's decode can
    be slow enough that waiting for it would leave the segment visible in
    ``/dev/shm`` needlessly long.

    When the container carries a warm handoff's artefacts frame
    (:func:`repro.kb.wire.encode_artefacts`), the decoded caches are
    seeded onto the chain's schema views (:func:`seed_artefacts`) so the
    first request served from this chain skips the cold recompute.
    """
    segment = attach_shared_payload(segment_name)
    if on_attached is not None:
        on_attached()
    try:
        base, log, artefact_bytes = wire.unpack_store_payload_full(segment.buf)
        try:
            kb = decode_store_payload(base, log)
            if artefact_bytes is not None and len(kb):
                seed_artefacts(
                    kb,
                    wire.decode_artefacts(
                        artefact_bytes, kb.first().graph.dictionary
                    ),
                )
        finally:
            for part in (base, log, artefact_bytes):
                if isinstance(part, memoryview):
                    part.release()
    finally:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - stray decode view
            pass
    return kb


def destroy_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment the caller created (tolerates races)."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a view of .buf still exported
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# -- warm artefact handoff ----------------------------------------------------------
#
# Bootstrapping a replica from the chain payload alone leaves its per-version
# engine caches cold: the first request pays a full Brandes pass over the
# class graph plus the semantic relative-cardinality/centrality sweep.  All
# of those are deterministic pure functions of the version snapshot, already
# computed and memoised on the owner's SchemaViews -- so a late joiner can
# inherit them byte-for-byte instead of recomputing them.


def collect_artefacts(kb) -> dict:
    """Harvest the warm per-version artefact caches of a serving chain.

    Walks the chain's versions and, for every schema view a request has
    already built (:attr:`repro.kb.version.Version.schema_if_built` --
    compacted or never-touched versions are skipped, never forced), pulls
    the memoised raw betweenness map and the semantic RC / centrality
    caches.  Returns the ``{version_id: entry}`` mapping
    :func:`repro.kb.wire.encode_artefacts` packs.
    """
    artefacts: dict = {}
    for version in kb:
        schema = version.schema_if_built
        if schema is None:
            continue
        memo = schema.memo
        entry: dict = {}
        raw = memo.get(RAW_BETWEENNESS_KEY)
        if raw is not None:
            entry["betweenness"] = dict(raw)
        rc = memo.get(RC_KEY)
        if rc:
            entry["rc"] = dict(rc)
        centrality = memo.get(CENTRALITY_KEY)
        if centrality:
            entry["centrality"] = dict(centrality)
        if entry:
            artefacts[version.version_id] = entry
    return artefacts


def seed_artefacts(kb, artefacts: dict) -> int:
    """Install decoded artefact caches on a chain's schema views.

    The inverse of :func:`collect_artefacts`: for every version named in
    ``artefacts`` that is materialised (the lazy decode warms exactly the
    head pair -- seeding a compacted middle would force the delta replay
    the lazy path exists to avoid), the memo entries a cold build would
    publish are installed up front:

    * ``betweenness`` seeds the raw map plus the ``(class graph,
      normalized map)`` artefact -- the graph is rebuilt locally (cheap,
      deterministic), the Brandes pass is what the handoff skips;
    * ``rc`` / ``centrality`` seed the semantic caches as plain dicts,
      the shape :mod:`repro.measures.semantic` memoises.

    Every seeded value is bit-identical to what the skipped recompute
    would produce: the caches are deterministic functions of the snapshot
    and the wire round-trip preserves float64 bits.  Returns the number
    of versions seeded.
    """
    seeded = 0
    for version_id, entry in artefacts.items():
        try:
            version = kb.version(version_id)
        except VersionError:
            continue  # artefact for a version this chain does not hold
        if not version.is_materialized:
            continue
        memo = version.schema.memo
        raw = entry.get("betweenness")
        if raw is not None and BETWEENNESS_KEY not in memo:
            graph = class_graph(version.schema)
            memo[RAW_BETWEENNESS_KEY] = dict(raw)
            memo[BETWEENNESS_KEY] = (graph, normalize_betweenness(raw, len(graph)))
        rc = entry.get("rc")
        if rc is not None and RC_KEY not in memo:
            memo[RC_KEY] = dict(rc)
        centrality = entry.get("centrality")
        if centrality is not None and CENTRALITY_KEY not in memo:
            memo[CENTRALITY_KEY] = dict(centrality)
        seeded += 1
    return seeded


def encode_tenant_artefacts(kb) -> bytes:
    """The wire bytes of :func:`collect_artefacts`, or ``b""`` when cold.

    Convenience for publishers: harvest + encode against the chain
    dictionary in one call, returning empty bytes when no view has warmed
    yet (the store container simply omits its artefacts frame then).
    """
    artefacts = collect_artefacts(kb)
    if not artefacts or not len(kb):
        return b""
    return wire.encode_artefacts(artefacts, kb.first().graph.dictionary)


# -- replica worker process ---------------------------------------------------------


def _replica_main(
    conn,
    tenant_name: str,
    replica_index: int,
    segment_name: str,
    config: ServiceConfig,
    users_bytes: bytes,
    feedback_bytes: Optional[bytes],
) -> None:
    """Entry point of one replica process (module-level: spawn-picklable).

    Runs the shard processes' receive loop (``_run_worker`` in
    :mod:`repro.service.sharding`) with the replica's op table: commit
    ops are rejected (read-only) and ``apply_record`` applies a forwarded
    commit record inline, so reads admitted after a record always score
    the post-record head.
    """
    # Deferred import: sharding imports this module's supervisor-side
    # helpers, so a top-level import would cycle.
    from repro.service.sharding import _run_worker

    service = RecommendationService(config)

    def boot(send) -> dict:
        # The "attached" signal races ahead of the (potentially slow)
        # decode: as soon as this process holds its mapping the supervisor
        # may unlink the segment -- POSIX keeps the mapping alive -- so a
        # late-join segment is gone from /dev/shm within one pipe
        # round-trip of its creation.
        kb = decode_shared_payload(
            segment_name, on_attached=lambda: send(("attached", replica_index))
        )
        users = users_from_dicts(json.loads(users_bytes.decode("utf-8")))
        feedback = (
            feedback_from_dicts(json.loads(feedback_bytes.decode("utf-8")))
            if feedback_bytes is not None
            else None
        )
        tenant = service.add_tenant(tenant_name, kb, users, feedback)
        dictionary = kb.first().graph.dictionary if len(kb) else None

        def apply_record(payload) -> dict:
            # The generation bump.  Under the tenant write lock the
            # decoded delta lands via commit_recorded -- O(delta), with
            # the dictionary growing by exactly the record's term range,
            # so replica term ids track the owner's forever -- and then
            # takes the tenant's post-commit step like any commit.
            # Running inline (not on a thread) makes pipe order the commit
            # order: a recommend the supervisor sends after this record
            # cannot be admitted on the pre-record head.
            with tenant.write_lock:
                version_id, metadata, added, deleted = wire.decode_commit(
                    payload["record"], dictionary
                )
                tenant.commit_recorded(
                    added=added, deleted=deleted,
                    version_id=version_id, metadata=metadata,
                )
                generation = len(tenant.kb)
            return {"generation": generation, "version_id": version_id}

        def read_only(_payload) -> None:
            raise ServiceError(
                f"replica {replica_index} of tenant {tenant_name!r} is "
                "read-only; commits route to the owning shard"
            )

        return {
            "apply_record": apply_record,
            "commit": read_only,
            "commit_delta": read_only,
            "health": lambda _payload: {
                "status": "ok", "replica": replica_index,
                "tenant": tenant_name, "generation": len(tenant.kb),
            },
        }

    _run_worker(conn, replica_index, service, boot)


__all__ = [
    "attach_shared_payload",
    "collect_artefacts",
    "create_shared_payload",
    "decode_shared_payload",
    "destroy_segment",
    "encode_tenant_artefacts",
    "seed_artefacts",
]
