"""The HTTP front-end: the JSON API on one asyncio event loop, every topology.

:class:`AsyncServiceServer` is the only HTTP front-end ``repro serve``
starts.  Its backend is either an in-process
:class:`~repro.service.service.RecommendationService` or, in the sharded
and replicated topologies, a :class:`~repro.service.sharding.ShardSupervisor`;
the server calls the same five methods on both and never asks which one
it holds:

* ``recommend_cached_async(tenant, user, k, old, new)`` -- a
  ``concurrent.futures.Future`` of the response body bytes and their
  strong ETag (the single-process service computes or looks them up; the
  supervisor relays what the owning shard or a replica produced);
* ``commit_request(payload)``, ``stats()``, ``tenants()`` and
  ``health()`` -- blocking calls (a pipe round-trip, the tenant write
  lock, N-Triples parsing), so they run off the loop: commits on the
  server's own commit pool, the rest in the loop's default executor, so
  commits queued behind a write lock or a stalled shard never hold the
  threads ``/health``, ``/stats`` and ``/events`` answer from.

The split of labour is deliberate:

* **Connection handling is async.**  Accepting, parsing, keep-alive
  waiting and response writing all run on the event loop, so an idle
  keep-alive connection (dashboards, health checkers, connection pools
  sized for peak) costs one socket and a parked coroutine, never a
  thread.
* **Scoring stays off the loop.**  ``/recommend`` admits through the
  backend's ``recommend_cached_async`` and bridges the returned future
  onto the loop with :func:`asyncio.wrap_future`; the loop itself never
  scores, parses N-Triples or waits on a lock.

Endpoints (``docs/http-api.md`` has the full contract):

``GET /health``, ``GET /tenants``, ``GET /stats``
    liveness, tenant summaries and the frozen ops snapshot
    (:data:`repro.service.metrics.STATS_VERSION`); the sharded topology
    reports per-shard stats and shard/replica liveness.
``GET /alerts``
    one-shot threshold evaluation over the same ``/stats`` payload
    (:func:`repro.service.metrics.evaluate_alerts`).
``GET /events``
    a Server-Sent Events stream (``text/event-stream``) publishing the
    ``/stats`` payload every ``interval`` seconds as an ``event: stats``
    frame (the SSE ``id:`` is the tick sequence number), plus an
    ``event: alerts`` frame on ticks where the configured thresholds
    fire.  ``?interval=`` overrides the cadence per subscriber;
    ``?count=`` ends the stream after that many ticks.  One subscriber
    costs one coroutine.
``POST /recommend``
    the package's JSON bytes with a strong ``ETag``; an ``If-None-Match``
    match is answered ``304 Not Modified`` with no body.
``POST /commit``
    N-Triples changes committed to the tenant's latest version (by the
    owning shard in the sharded topology).

Shutdown closes the listener, then every live connection; in-flight
admitted requests still resolve (the admission queue drains on backend
close, not server close).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import threading
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.http import etag_matches, map_error, parse_recommend_payload
from repro.service.metrics import AlertThresholds, evaluate_alerts

#: Reason phrases for the handful of statuses this front-end emits.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard ceiling on one request head (request line + headers).  Matches the
#: stdlib ``http.server`` order of magnitude; a client that sends more is
#: answered 400 and disconnected.
_MAX_HEADER_BYTES = 65536


def sse_frame(event: str, seq: int, payload: Dict) -> bytes:
    """One Server-Sent Events frame: ``event``/``id``/``data`` + blank line.

    ``data`` is a single line because the payload is compact JSON (no
    embedded newlines by construction); the trailing blank line is the
    frame boundary the SSE grammar requires.
    """
    body = json.dumps(payload)
    return f"event: {event}\nid: {seq}\ndata: {body}\n\n".encode("utf-8")


def _keep_alive(version: str, connection: str) -> bool:
    """Does the connection stay open after this response?

    HTTP/1.1 keeps it unless the client sent ``Connection: close``;
    HTTP/1.0 closes it unless the client asked for ``keep-alive``.
    """
    tokens = {token.strip() for token in connection.lower().split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


class AsyncServiceServer:
    """Single-event-loop HTTP front-end over a service or a shard supervisor.

    Serves ``/health``, ``/tenants``, ``/stats``, ``/alerts``, ``/events``,
    ``/recommend`` and ``/commit`` from ``backend`` (see the module
    docstring for the five methods it must provide).  Construct,
    ``await start()``, then ``await serve_forever()`` -- or use
    :class:`AsyncServerThread` to run it next to synchronous code (the
    tests, the benchmark).

    ``max_connections`` bounds simultaneous open connections: connection
    ``max_connections + 1`` is answered 503 and closed instead of
    degrading everyone.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        thresholds: Optional[AlertThresholds] = None,
        events_interval: float = 1.0,
        max_connections: int = 4096,
    ) -> None:
        if not math.isfinite(events_interval) or events_interval <= 0:
            raise ValueError(f"events_interval must be > 0, got {events_interval}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.backend = backend
        self.host = host
        self.port = port
        self.thresholds = thresholds or AlertThresholds()
        self.events_interval = events_interval
        self.max_connections = max_connections
        self.address: Tuple[str, int] = (host, port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        # Threads start on first use, so idle connections still cost none.
        self._commit_pool = concurrent.futures.ThreadPoolExecutor(
            thread_name_prefix="repro-commit"
        )

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting (port 0 = ephemeral); returns the address."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`close`\\ d."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        """Stop accepting, then close every live connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self._commit_pool.shutdown(wait=False)

    @property
    def connections(self) -> int:
        """Currently open connections (the ops plane's C10K gauge)."""
        return len(self._writers)

    # -- connection loop ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._writers) >= self.max_connections:
            writer.write(
                self._response(503, {"error": "connection limit reached"}, close=True)
            )
            with _swallow_disconnect():
                await writer.drain()
            writer.close()
            return
        self._writers.add(writer)
        try:
            with _swallow_disconnect():
                while await self._handle_one(reader, writer):
                    pass
        except asyncio.CancelledError:
            # Loop shutdown cancels connection tasks parked on readline;
            # completing normally here (instead of staying "cancelled")
            # keeps the stream protocol's done-callback from re-raising
            # into the event loop's exception handler.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _reject(self, writer: asyncio.StreamWriter, message: str) -> bool:
        """Answer a malformed request 400 and close the connection."""
        writer.write(self._response(400, {"error": message}, close=True))
        await writer.drain()
        return False

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request on a keep-alive connection.

        Returns True to keep the connection open for the next request.
        An idle connection parks here on ``readline`` indefinitely -- that
        wait *is* the cheap idle keep-alive the front-end exists for.
        """
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return await self._reject(writer, "request line too long")
        if not request_line:
            return False  # client closed the idle connection
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return await self._reject(writer, "malformed request line")
        method, target, version = parts

        headers: Dict[str, str] = {}
        head_bytes = len(request_line)
        while True:
            try:
                # A single line past the stream limit (64 KiB) raises
                # instead of returning: same answer as a long head.
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                return await self._reject(writer, "headers too large")
            head_bytes += len(line)
            if head_bytes > _MAX_HEADER_BYTES:
                return await self._reject(writer, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        keep_alive = _keep_alive(version, headers.get("connection", ""))

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
                if n < 0:
                    raise ValueError
            except ValueError:
                return await self._reject(writer, "bad Content-Length")
            if n:
                if (
                    version == "HTTP/1.1"
                    and headers.get("expect", "").lower() == "100-continue"
                ):
                    # The client holds the body back until it sees this
                    # interim response (curl waits a second for it).
                    writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    await writer.drain()
                try:
                    body = await reader.readexactly(n)
                except asyncio.IncompleteReadError:
                    return False  # client died mid-body

        split = urlsplit(target)
        path, query = split.path, split.query

        if method == "GET" and path == "/events":
            await self._stream_events(writer, query)
            return False  # the stream owns the connection until it ends
        if method == "POST" and path == "/recommend":
            # Handled outside _dispatch: the read path needs the request
            # headers (If-None-Match) and writes the backend's
            # pre-encoded bytes instead of re-serialising a dict.
            writer.write(
                await self._recommend_raw(body, headers, close=not keep_alive)
            )
            await writer.drain()
            return keep_alive
        status, payload = await self._dispatch(method, path, body)
        writer.write(self._response(status, payload, close=not keep_alive))
        await writer.drain()
        return keep_alive

    # -- routing ------------------------------------------------------------------

    @staticmethod
    async def _off_loop(fn: Callable, *args, executor=None):
        """Run a blocking backend call in ``executor`` (default: the loop's)."""
        return await asyncio.get_running_loop().run_in_executor(executor, fn, *args)

    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, Dict]:
        """Route one plain (non-SSE) request -> ``(status, JSON payload)``."""
        backend = self.backend
        try:
            if method == "GET":
                if path == "/health":
                    return 200, await self._off_loop(backend.health)
                if path == "/tenants":
                    return 200, {"tenants": await self._off_loop(backend.tenants)}
                if path == "/stats":
                    return 200, await self._off_loop(backend.stats)
                if path == "/alerts":
                    stats = await self._off_loop(backend.stats)
                    return 200, evaluate_alerts(stats, self.thresholds)
                return 404, {"error": f"unknown path: {path}"}
            if method == "POST":
                if path == "/commit":
                    payload = self._decode_body(body)
                    return 200, await self._off_loop(
                        backend.commit_request, payload, executor=self._commit_pool
                    )
                return 404, {"error": f"unknown path: {path}"}
            return 404, {"error": f"unsupported method: {method}"}
        except Exception as exc:  # one failure taxonomy for every endpoint
            status, message = map_error(exc)
            return status, {"error": message}

    @staticmethod
    def _decode_body(body: bytes) -> Dict:
        if not body:
            raise ValueError("request body must be a JSON object")
        payload = json.loads(body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    async def _recommend_raw(
        self, body: bytes, headers: Dict[str, str], close: bool
    ) -> bytes:
        """One ``/recommend`` -> complete wire bytes (200, 304 or error).

        :func:`asyncio.wrap_future` is the whole bridge: the admission
        workers or the shard pipe's reader thread resolve the
        ``concurrent.futures.Future`` from their threads and the loop
        wakes this coroutine (a cache hit is already resolved).
        ``wait_for`` applies the backend's ``request_timeout_s``; on
        timeout it cancels the wrapped future (which the queue, the
        cache's fill path and the pipe client all tolerate) and the
        shared error mapping turns it into a 504.  The 200 body is the
        backend's pre-encoded bytes with their strong ``ETag``; an
        ``If-None-Match`` match answers 304 with no body.
        """
        backend = self.backend
        try:
            tenant, user, k, old, new = parse_recommend_payload(self._decode_body(body))
            future = backend.recommend_cached_async(tenant, user, k, old, new)
            if not future.done():
                # A cache hit arrives resolved: answering it without the
                # bridge saves event-loop passes, and each pass may wait
                # a whole GIL switch interval while a fill is scoring.
                await asyncio.wait_for(
                    asyncio.wrap_future(future),
                    timeout=backend.config.request_timeout_s,
                )
            response = future.result()
        except Exception as exc:
            status, message = map_error(exc)
            return self._response(status, {"error": message}, close=close)
        if etag_matches(headers.get("if-none-match"), response.etag):
            return self._raw_response(304, b"", response.etag, close)
        return self._raw_response(200, response.body, response.etag, close)

    # -- SSE ----------------------------------------------------------------------

    async def _stream_events(self, writer: asyncio.StreamWriter, query: str) -> None:
        """Publish ``event: stats`` frames (and ``event: alerts`` when firing).

        Ends when the subscriber disconnects or after ``?count=`` ticks;
        a mid-stream disconnect is an expected outcome, not an error --
        the connection is simply reclaimed.
        """
        params = parse_qs(query)
        try:
            interval = float(params["interval"][0]) if "interval" in params else self.events_interval
            count = int(params["count"][0]) if "count" in params else None
            if not math.isfinite(interval) or interval <= 0:
                raise ValueError
            if count is not None and count < 1:
                raise ValueError
        except (ValueError, TypeError):
            writer.write(
                self._response(
                    400,
                    {"error": "interval must be > 0 and count a positive integer"},
                    close=True,
                )
            )
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        seq = 0
        while count is None or seq < count:
            stats = await self._off_loop(self.backend.stats)
            frame = sse_frame("stats", seq, stats)
            alerts = evaluate_alerts(stats, self.thresholds)
            if alerts["status"] == "alerting":
                frame += sse_frame("alerts", seq, alerts)
            writer.write(frame)
            await writer.drain()
            seq += 1
            if count is not None and seq >= count:
                break
            await asyncio.sleep(interval)

    # -- response plumbing ---------------------------------------------------------

    @staticmethod
    def _raw_response(status: int, body: bytes, etag: str, close: bool = False) -> bytes:
        """Pre-encoded response bytes + strong ETag (200 hit / 304 revalidation)."""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"ETag: {etag}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{'Connection: close' + chr(13) + chr(10) if close else ''}"
            "\r\n"
        ).encode("latin-1")
        return head + body

    @staticmethod
    def _response(status: int, payload: Dict, close: bool = False) -> bytes:
        """Serialise one JSON response with a bare ``json.dumps`` (the
        serialisation every reference replay in the tests uses)."""
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{'Connection: close' + chr(13) + chr(10) if close else ''}"
            "\r\n"
        ).encode("latin-1")
        return head + body


class _swallow_disconnect:
    """Context manager treating peer-reset/broken-pipe as a normal close."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, BrokenPipeError, TimeoutError)
        )


class AsyncServerThread:
    """Run an :class:`AsyncServiceServer` on a dedicated event-loop thread.

    The seam between the front-end and synchronous callers: the tests,
    the benchmark and anything embedding the server next to blocking
    code use this instead of owning a loop.  (``repro serve`` runs the
    loop in the *main* thread instead -- see ``repro.cli``.)

    One background thread runs ``asyncio.run`` around the server;
    :meth:`start` blocks until the listener is bound and returns the
    address; :meth:`stop` shuts the loop down and joins the thread.
    Usable as a context manager.
    """

    def __init__(self, backend, **kwargs) -> None:
        self._backend = backend
        self._kwargs = kwargs
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[AsyncServiceServer] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-aio-server",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("async server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("async server failed to start") from self._startup_error
        assert self.address is not None
        return self.address

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = AsyncServiceServer(self._backend, **self._kwargs)
        try:
            self.address = await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "AsyncServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
