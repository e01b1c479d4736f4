"""Request semantics of the JSON HTTP API, shared by every process.

The wire contract (endpoints, status codes, bodies) is served by one
front-end, :class:`repro.service.aio.AsyncServiceServer`, in every
topology; ``docs/http-api.md`` documents it.  This module holds the
parts of it that do not depend on the transport or the topology:

* :func:`map_error` -- one failure taxonomy -> ``(status, message)``;
* :func:`parse_recommend_payload` -- validate a ``POST /recommend`` body;
* :func:`etag_matches` -- the ``If-None-Match`` comparison behind 304s;
* :func:`handle_commit` / :func:`apply_commit` -- the ``POST /commit``
  write path: parse the N-Triples changes into private dictionaries,
  then commit them under the tenant write lock.  A single-process
  service runs it in-process; in the sharded topology the body is
  forwarded verbatim and the owning shard process runs it.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.kb.errors import KnowledgeBaseError
from repro.kb.ntriples import parse_graph
from repro.kb.triples import Triple
from repro.service.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardError,
    UnknownTenantError,
    UnknownUserError,
    error_message,
)

if TYPE_CHECKING:  # service.py imports this module; annotation only here.
    from repro.service.service import RecommendationService


#: Overload timeouts, whatever layer raised them: a blocking
#: Future.result, the front-end's asyncio.wait_for (a distinct class until
#: Python 3.11 aliased it to the builtin), or a hung shard fan-out.
TIMEOUT_ERRORS = (TimeoutError, FuturesTimeoutError, asyncio.TimeoutError)


def map_error(exc: BaseException) -> Tuple[int, str]:
    """One request-failure taxonomy -> ``(HTTP status, message)``.

    Shard and replica processes re-raise the same exception classes on
    the router side, so the same failure produces byte-identical error
    JSON in every topology:

    * 404 -- the client named a tenant/user that does not exist;
    * 503 -- shutdown, shed under load, or a dead shard: retry elsewhere,
      the request itself was fine;
    * 504 -- the admitted batch missed ``request_timeout_s``: overload,
      not a bug (the fixed message leaks no per-request state);
    * 400 -- the request was malformed (bad JSON, bad N-Triples, bad
      field types, duplicate version id);
    * 500 -- everything else: a server-side bug.
    """
    if isinstance(exc, (UnknownTenantError, UnknownUserError)):
        return 404, error_message(exc)
    if isinstance(exc, (ServiceClosedError, ServiceOverloadedError, ShardError)):
        return 503, error_message(exc)
    if isinstance(exc, TIMEOUT_ERRORS):
        return 504, "request timed out under load"
    if isinstance(
        exc, (ValueError, KeyError, ServiceError, KnowledgeBaseError, json.JSONDecodeError)
    ):
        return 400, error_message(exc)
    return 500, error_message(exc)


def parse_recommend_payload(
    payload: Dict,
) -> Tuple[str, str, Optional[int], Optional[str], Optional[str]]:
    """Validate a ``/recommend`` body -> ``(tenant, user, k, old, new)``."""
    tenant_name = payload.get("tenant")
    user_id = payload.get("user")
    if not tenant_name or not user_id:
        raise ValueError("recommend requires 'tenant' and 'user'")
    k = payload.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 0):
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    return tenant_name, user_id, k, payload.get("old"), payload.get("new")


def etag_matches(header: Optional[str], etag: str) -> bool:
    """Does an ``If-None-Match`` header value match a strong ``etag``?

    Implements the comparison the contract needs: ``*`` matches anything,
    otherwise the header is a comma-separated tag list compared tag by
    tag.  Weak validators (``W/"..."``) never match -- every tag this
    server hands out is strong, so a weak match could only come from a
    foreign cache and must revalidate.
    """
    if not header:
        return False
    if header.strip() == "*":
        return True
    return any(candidate.strip() == etag for candidate in header.split(","))


def apply_commit(
    service: RecommendationService,
    tenant_name: str,
    added: Iterable[Triple],
    deleted: Iterable[Triple],
    version_id: str | None,
    metadata: Dict,
) -> Dict:
    """Commit already-parsed changes to a tenant (shared write-path core).

    Validation and the duplicate-id precheck run under the tenant write
    lock, atomic with the commit itself; both the N-Triples HTTP path and
    the binary-delta shard path funnel through here.
    """
    tenant = service.tenant(tenant_name)
    if version_id is not None and not isinstance(version_id, str):
        raise ValueError(f"version_id must be a string, got {version_id!r}")
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be a JSON object")
    added = list(added)
    deleted = list(deleted)
    if not added and not deleted:
        raise ValueError("commit requires non-empty 'added' and/or 'deleted'")
    with tenant.write_lock:
        # Duplicate-id precheck before commit_changes interns the new terms
        # (atomic with the commit: the lock is reentrant and held across
        # both).
        if version_id is not None and version_id in tenant.kb:
            raise ValueError(f"duplicate version id: {version_id!r}")
        version = tenant.commit_changes(
            added=added,
            deleted=deleted,
            version_id=version_id,
            metadata={str(k): str(v) for k, v in metadata.items()},
        )
    return {
        "tenant": tenant_name,
        "version_id": version.version_id,
        "size": len(version),
        "versions": tenant.kb.version_ids(),
    }


def handle_commit(service: RecommendationService, payload: Dict) -> Dict:
    """Serve one ``/commit`` body (N-Triples changes) against a service."""
    tenant_name = payload.get("tenant")
    if not tenant_name:
        raise ValueError("commit requires 'tenant'")
    added_text = payload.get("added") or ""
    deleted_text = payload.get("deleted") or ""
    if not isinstance(added_text, str) or not isinstance(deleted_text, str):
        raise ValueError("'added' and 'deleted' must be N-Triples strings")
    # Parse into private dictionaries: the chain's shared TermDictionary is
    # append-only and interning is writer-locked, so (a) a rejected request
    # must not grow it, and (b) concurrent handler threads must not intern
    # into it outside the tenant write lock.
    added = parse_graph(added_text)
    deleted = parse_graph(deleted_text)
    return apply_commit(
        service,
        tenant_name,
        list(added),
        list(deleted),
        payload.get("version_id"),
        payload.get("metadata") or {},
    )
