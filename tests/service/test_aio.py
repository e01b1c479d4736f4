"""HTTP front-end tests: byte parity with the serial in-process reference,
raw-socket protocol edge cases, SSE framing and disconnect behaviour, and
bit-identity under a hammered concurrent mixed read/commit stream.

The reference for every body is what a serial caller of an identically
generated twin service would serialise: ``json.dumps(package_to_dict(...))``
for reads, ``json.dumps`` of the method's result (or of the mapped error)
for everything else."""

import http.client
import importlib.util
import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.io.storage import package_to_dict
from repro.service import (
    AlertThresholds,
    AsyncServerThread,
    RecommendationService,
    ServiceConfig,
    evaluate_alerts,
)
from repro.service.http import map_error, parse_recommend_payload
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.world import generate_world

WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=15, n_properties=10),
    instances=InstanceConfig(base_instances_per_class=4),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=25, n_hotspots=2),
    users=UserConfig(n_users=4, events_per_user=6),
)
SEED = 31
ROOT = Path(__file__).resolve().parents[2]


def _request(host, port, method, path, payload=None):
    """One request on a fresh connection -> (status, raw body bytes)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection.request(
            method, path, body,
            {"Content-Type": "application/json"} if body else {},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _twin():
    """An identically generated service that never sees a socket."""
    world = generate_world(seed=SEED, config=WORLD_CONFIG)
    service = RecommendationService(ServiceConfig(k=3, workers=2))
    service.add_tenant("uni", world.kb, world.users)
    return service


def _serial(twin, method, path, payload=None):
    """The serial in-process reference -> (status, body bytes)."""
    try:
        if (method, path) == ("POST", "/recommend"):
            tenant, user, k, old, new = parse_recommend_payload(payload)
            result = package_to_dict(
                twin.recommend(tenant, user, k=k, old_id=old, new_id=new)
            )
        elif (method, path) == ("POST", "/commit"):
            result = twin.commit_request(payload)
        elif (method, path) == ("GET", "/health"):
            result = twin.health()
        elif (method, path) == ("GET", "/tenants"):
            result = {"tenants": twin.tenants()}
        elif (method, path) == ("GET", "/stats"):
            result = twin.stats()
        elif (method, path) == ("GET", "/alerts"):
            result = evaluate_alerts(twin.stats(), AlertThresholds())
        else:
            return 404, json.dumps({"error": f"unknown path: {path}"}).encode()
    except Exception as exc:
        status, message = map_error(exc)
        return status, json.dumps({"error": message}).encode()
    return 200, json.dumps(result).encode()


@pytest.fixture()
def served():
    """One service behind the front-end, plus its never-served twin."""
    world = generate_world(seed=SEED, config=WORLD_CONFIG)
    service = RecommendationService(ServiceConfig(k=3, workers=2))
    service.add_tenant("uni", world.kb, world.users)
    twin = _twin()
    try:
        with AsyncServerThread(service, thresholds=AlertThresholds()) as aio:
            yield world, service, twin, aio.address
    finally:
        service.close()
        twin.close()


class TestEndpointParity:
    def test_get_endpoints_byte_identical(self, served):
        _, _, twin, address = served
        for path in ("/health", "/tenants", "/stats", "/alerts"):
            assert _request(*address, "GET", path) == _serial(twin, "GET", path), path

    def test_recommend_byte_identical(self, served):
        world, _, twin, address = served
        ids = world.kb.version_ids()
        for user in world.users:
            payload = {
                "tenant": "uni", "user": user.user_id,
                "old": ids[0], "new": ids[1],
            }
            result = _request(*address, "POST", "/recommend", payload)
            assert result == _serial(twin, "POST", "/recommend", payload)
            assert result[0] == 200

    def test_error_responses_byte_identical(self, served):
        _, _, twin, address = served
        cases = [
            ("POST", "/recommend", {"tenant": "ghost", "user": "u0"}),  # 404
            ("POST", "/recommend", {"tenant": "uni", "user": "ghost"}),  # 404
            ("POST", "/recommend", {"tenant": "uni"}),  # 400
            ("POST", "/recommend", {"tenant": "uni", "user": "u0", "k": -1}),  # 400
            ("POST", "/commit", {"tenant": "uni"}),  # 400 (no changes)
            ("GET", "/nope", None),  # 404
            ("POST", "/nope", {}),  # 404
        ]
        for method, path, payload in cases:
            result = _request(*address, method, path, payload)
            assert result == _serial(twin, method, path, payload), (method, path)
            assert result[0] in (400, 404)

    def test_keep_alive_reuses_one_connection(self, served):
        _, _, _, (host, port) = served
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_connection_close_header_honoured(self, served):
        _, _, _, (host, port) = served
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/health", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            assert response.will_close
        finally:
            connection.close()


def _read_until_closed(sock):
    """Everything the server sends until it closes (socket.timeout if never)."""
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


class TestProtocol:
    """Raw-socket edge cases a well-behaved client library never produces."""

    def test_expect_100_continue_is_answered_before_the_body(self, served):
        world, _, _, address = served
        body = json.dumps({"tenant": "uni", "user": world.users[0].user_id}).encode()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The client holds the body back until the interim response.
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(4096)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = b""
            while b"\r\n\r\n" not in response:
                response += sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_http10_without_keep_alive_closes(self, served):
        _, _, _, address = served
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
            raw = _read_until_closed(sock)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"status": "ok", "tenants": 1}

    def test_http10_keep_alive_is_honoured(self, served):
        _, _, _, address = served
        with socket.create_connection(address, timeout=5) as sock:
            for _ in range(2):
                sock.sendall(
                    b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(4096)
                assert head.startswith(b"HTTP/1.1 200 OK\r\n")
                assert b"Connection: close" not in head
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                body = head.partition(b"\r\n\r\n")[2]
                while len(body) < length:
                    body += sock.recv(4096)

    def test_oversized_header_line_gets_400_and_close(self, served):
        _, _, _, address = served
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: x\r\nX-Big: "
                + b"a" * (70 * 1024)
                + b"\r\n\r\n"
            )
            raw = _read_until_closed(sock)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert json.loads(body) == {"error": "headers too large"}
        # The server is still healthy afterwards.
        assert _request(*address, "GET", "/health")[0] == 200


class TestSSE:
    def _read_stream(self, host, port, query):
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", f"/events?{query}")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            return response.read()  # Connection: close ends the read
        finally:
            connection.close()

    def test_framing_and_sequence(self, served):
        _, service, _, (host, port) = served
        raw = self._read_stream(host, port, "interval=0.02&count=3")
        frames = [f for f in raw.split(b"\n\n") if f]
        assert len(frames) == 3
        for seq, frame in enumerate(frames):
            lines = frame.split(b"\n")
            assert lines[0] == b"event: stats"
            assert lines[1] == f"id: {seq}".encode()
            assert lines[2].startswith(b"data: ")
            payload = json.loads(lines[2][len(b"data: "):])
            # The SSE data payload IS the frozen /stats payload.
            assert set(payload) == set(service.stats())
            assert payload["stats_version"] == 2

    def test_alerts_frame_when_thresholds_fire(self, served):
        _, service, _, _ = served
        # A dedicated server whose queue-depth threshold of 0 always
        # fires: every tick must carry stats + alerts frames.
        with AsyncServerThread(
            service, thresholds=AlertThresholds(queue_depth=0)
        ) as aio:
            host, port = aio.address
            raw = self._read_stream(host, port, "interval=0.02&count=2")
        frames = [f for f in raw.split(b"\n\n") if f]
        events = [frame.split(b"\n")[0] for frame in frames]
        assert events == [
            b"event: stats", b"event: alerts",
            b"event: stats", b"event: alerts",
        ]
        alert_payload = json.loads(frames[1].split(b"\n")[2][len(b"data: "):])
        assert alert_payload["status"] == "alerting"
        assert alert_payload["alerts"][0]["kind"] == "queue_depth"

    def test_bad_query_is_400(self, served):
        _, _, _, (host, port) = served
        for query in ("interval=0", "interval=-1", "count=0", "interval=nan"):
            status, body = _request(*(host, port), "GET", f"/events?{query}")
            assert status == 400, query

    def test_disconnect_mid_stream_leaves_server_healthy(self, served):
        _, _, _, (host, port) = served
        # Subscribe with no count (endless stream), read one frame's worth,
        # then drop the socket mid-stream.
        raw_socket = socket.create_connection((host, port), timeout=30)
        try:
            raw_socket.sendall(
                b"GET /events?interval=0.02 HTTP/1.1\r\n"
                b"Host: x\r\n\r\n"
            )
            received = b""
            while b"\n\n" not in received:
                chunk = raw_socket.recv(4096)
                assert chunk, "stream ended before one full frame"
                received += chunk
        finally:
            raw_socket.close()
        # The server must reclaim the subscriber and keep serving.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, _ = _request(host, port, "GET", "/health")
            if status == 200:
                return
        pytest.fail("server unhealthy after SSE disconnect")


class TestConnectionLimit:
    def test_overflow_connection_gets_503(self):
        world = generate_world(seed=SEED, config=WORLD_CONFIG)
        service = RecommendationService(ServiceConfig(k=3, workers=1))
        service.add_tenant("uni", world.kb, world.users)
        try:
            with AsyncServerThread(service, max_connections=2) as aio:
                host, port = aio.address
                held = []
                try:
                    for _ in range(2):
                        connection = http.client.HTTPConnection(host, port, timeout=30)
                        connection.request("GET", "/health")
                        assert connection.getresponse().status == 200
                        held.append(connection)
                    status, body = _request(host, port, "GET", "/health")
                    assert status == 503
                    assert b"connection limit" in body
                finally:
                    for connection in held:
                        connection.close()
        finally:
            service.close()


class TestCommitBacklog:
    def test_health_answers_while_commits_wait_on_the_write_lock(self, served):
        # Commits run on the server's own pool: a backlog of them, one
        # more than a default executor has threads, all parked on the
        # tenant's write lock, must not hold up the introspection calls.
        _, service, _, address = served
        backlog = min(32, (os.cpu_count() or 1) + 4) + 1
        statuses = []
        clients = [
            threading.Thread(target=lambda i=i: statuses.append(_request(
                *address, "POST", "/commit",
                {"tenant": "uni", "added": f"<urn:t:s{i}> <urn:t:p> <urn:t:o{i}> .\n"},
            )[0]))
            for i in range(backlog)
        ]
        before = threading.active_count()
        with service.tenant("uni").write_lock:
            for client in clients:
                client.start()
            # Until the server runs as many commits as it has threads for.
            deadline = time.monotonic() + 5
            while threading.active_count() < before + 2 * backlog - 1:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            for path in ("/health", "/stats"):
                connection = http.client.HTTPConnection(*address, timeout=5)
                connection.request("GET", path)
                assert connection.getresponse().status == 200, path
                connection.close()
            assert statuses == []
        for client in clients:
            client.join(timeout=30)
        assert statuses == [200] * backlog


class TestMixedStreamBitIdentity:
    """The hammered concurrent mixed read/commit stream: one committer
    client, readers pinned to one version pair (so a read racing a commit
    scores the same snapshot either way) -- every captured response byte
    must match a serial replay of the same requests on a twin world.  The
    stream and the replay are the HTTP bench's gate check
    (``benchmarks/bench_service.py``), run here on the small test world."""

    def test_front_end_equals_serial_replay_under_mixed_load(self):
        spec = importlib.util.spec_from_file_location(
            "bench_service", ROOT / "benchmarks" / "bench_service.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        # 4 clients: one commits 3 versions, three each read 8 times.
        assert bench._mixed_stream_bit_identical(
            WORLD_CONFIG, ServiceConfig(k=3, workers=2), requests_per_client=8
        )
