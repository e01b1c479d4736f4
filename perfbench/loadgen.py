"""The load generator: raw keep-alive HTTP/1.1 sockets, pre-encoded requests.

Every request is built once, before the timed phase, as the exact bytes
to send; a connection then only does ``sendall`` and parses the status
line, ``Content-Length`` and ``ETag`` of the answer.  That keeps the
client small next to a sub-millisecond cached round trip.  Each connection
is a closed loop: it sends its next request only after the previous
answer has arrived.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REQUEST_TIMEOUT_S = 60.0


def post(path: bytes, body: bytes, extra_headers: bytes = b"") -> bytes:
    """The complete bytes of one ``POST`` request."""
    return (
        b"POST " + path + b" HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\nContent-Length: "
        + str(len(body)).encode("ascii") + b"\r\n" + extra_headers + b"\r\n" + body
    )


def recommend_request(tenant: str, user_id: str, etag: Optional[bytes] = None) -> bytes:
    body = json.dumps({"tenant": tenant, "user": user_id}).encode("utf-8")
    extra = b"If-None-Match: " + etag + b"\r\n" if etag is not None else b""
    return post(b"/recommend", body, extra)


class Connection:
    """One persistent HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._sock: Optional[socket.socket] = None
        self._buffer = bytearray()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=REQUEST_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer.clear()
        return sock

    def exchange(self, request: bytes) -> Tuple[int, bytes, bytes]:
        """Send ``request``; returns ``(status, etag, body)``."""
        sock = self._sock or self._connect()
        try:
            sock.sendall(request)
            return self._read_response(sock)
        except BaseException:
            self.close()
            raise

    def _read_response(self, sock: socket.socket) -> Tuple[int, bytes, bytes]:
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        head = bytes(buffer[:end]).lower()
        status = int(head[9:12])
        start = head.find(b"\r\ncontent-length:")
        if start < 0:
            raise ConnectionError("answer without Content-Length")
        stop = head.find(b"\r\n", start + 2)
        length = int(head[start + 17 : stop if stop > 0 else end])
        etag = b""
        tag = head.find(b"\r\netag:")
        if tag >= 0:
            stop = head.find(b"\r\n", tag + 2)
            # ETags are case-sensitive: slice them from the original bytes.
            etag = bytes(buffer[tag + 7 : stop if stop > 0 else end]).strip()
        total = end + 4 + length
        while len(buffer) < total:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        body = bytes(buffer[end + 4 : total])
        del buffer[:total]
        return status, etag, body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Tally:
    """What one connection saw in the timed phase (latencies in seconds)."""

    reads: List[float] = field(default_factory=list)
    fresh: List[float] = field(default_factory=list)
    commits: List[float] = field(default_factory=list)
    not_modified: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``user index -> {body bytes: answers}`` of 200s checked after the run.
    collected: Dict[int, Dict[bytes, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    ended: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def collect(self, user: int, body: bytes) -> None:
        bodies = self.collected.setdefault(user, {})
        bodies[body] = bodies.get(body, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.reads += other.reads
        self.fresh += other.fresh
        self.commits += other.commits
        self.not_modified += other.not_modified
        self.attempted += other.attempted
        self.failed += other.failed
        for user, bodies in other.collected.items():
            for body, answers in bodies.items():
                mine = self.collected.setdefault(user, {})
                mine[body] = mine.get(body, 0) + answers
        self.errors += other.errors[: max(0, 5 - len(self.errors))]
        self.ended = max(self.ended, other.ended)


#: One planned read: (user index, request bytes, expected status, expected).
#: ``expected`` is the exact body for a 200, the ETag for a 304, or None to
#: collect the body for the check after the run.
Read = Tuple[int, bytes, int, Optional[bytes]]


Loop = Callable[["Phase", Connection, Tally], None]


class Phase:
    """Closed-loop connections that start together and stop at a deadline."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.stop = threading.Event()
        self._loops: List[Tuple[Loop, Connection]] = []
        self.started = 0.0
        self.deadline = 0.0

    def add(self, connection: Connection, loop: Loop) -> None:
        self._loops.append((loop, connection))

    def running(self) -> bool:
        return not self.stop.is_set() and time.perf_counter() < self.deadline

    def run(self) -> Tuple[Tally, float, float]:
        """Run every loop on its connection -> ``(tally, wall s, client cpu s)``."""
        tallies = [Tally() for _ in self._loops]
        barrier = threading.Barrier(len(self._loops) + 1)

        def body(loop, connection, tally) -> None:
            try:
                barrier.wait()
                loop(self, connection, tally)
            except Exception as exc:  # a crashed loop fails the run, never hangs it
                tally.fail(f"load loop crashed: {exc!r}")
            finally:
                tally.ended = time.perf_counter()
                connection.close()

        threads = [
            threading.Thread(target=body, args=(loop, connection, tally), daemon=True)
            for (loop, connection), tally in zip(self._loops, tallies)
        ]
        for thread in threads:
            thread.start()
        cpu_start = time.process_time()
        self.started = time.perf_counter()
        self.deadline = self.started + self.seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        cpu = time.process_time() - cpu_start
        total = Tally()
        for tally in tallies:
            total.merge(tally)
        return total, total.ended - self.started, cpu


def read_loop(plan: Sequence[Read]) -> Loop:
    """A closed loop over ``plan`` (cycled) until the deadline."""

    def loop(phase: Phase, connection: Connection, tally: Tally) -> None:
        clock = time.perf_counter
        size = len(plan)
        i = 0
        reads = tally.reads
        while phase.running():
            user, request, want_status, expected = plan[i % size]
            i += 1
            tally.attempted += 1
            begin = clock()
            try:
                status, etag, body = connection.exchange(request)
            except OSError as exc:
                tally.fail(f"transport: {exc!r}")
                continue
            elapsed = clock() - begin
            if status != want_status:
                tally.fail(f"user {user}: status {status}, wanted {want_status}")
                continue
            if status == 304:
                if etag != expected:
                    tally.fail(f"user {user}: 304 with ETag {etag!r}")
                    continue
                tally.not_modified += 1
            elif expected is None:
                tally.collect(user, body)
            elif body != expected:
                tally.fail(f"user {user}: body differs from the reference")
                continue
            reads.append(elapsed)

    return loop


def commit_loop(
    commits: Sequence[Tuple[bytes, str]],
    fresh_reads: Sequence[Tuple[int, bytes, str]],
) -> Loop:
    """Commit each delta, then read the new head once; stops the phase when done.

    ``commits[i]`` is ``(request, version id)`` and ``fresh_reads[i]`` is
    ``(user index, request, expected context)`` for the pair that commit
    creates.  A failed commit ends the stream: later deltas no longer apply.
    """

    def loop(phase: Phase, connection: Connection, tally: Tally) -> None:
        clock = time.perf_counter
        try:
            for (request, version_id), (user, read, context) in zip(commits, fresh_reads):
                if not phase.running():
                    break
                tally.attempted += 1
                begin = clock()
                try:
                    status, _, body = connection.exchange(request)
                except OSError as exc:
                    tally.fail(f"commit transport: {exc!r}")
                    return
                elapsed = clock() - begin
                if status != 200 or json.loads(body).get("version_id") != version_id:
                    tally.fail(f"commit {version_id}: status {status} {body[:200]!r}")
                    return
                tally.commits.append(elapsed)
                tally.attempted += 1
                begin = clock()
                try:
                    status, _, body = connection.exchange(read)
                except OSError as exc:
                    tally.fail(f"fresh read transport: {exc!r}")
                    continue
                elapsed = clock() - begin
                if status != 200:
                    tally.fail(f"fresh read after {version_id}: status {status}")
                    continue
                got = json.loads(body)["metadata"]["context"]
                if got != context:
                    tally.fail(f"fresh read after {version_id} answered {got}")
                    continue
                tally.collect(user, body)
                tally.fresh.append(elapsed)
                tally.reads.append(elapsed)
        finally:
            phase.stop.set()

    return loop
