"""Start, probe and stop ``repro serve`` as a separate process.

The server is started only with ``--kb``, ``--users``, ``--port 0`` and,
for the cached workloads, ``--cache-entries``.  Its stdout is unbuffered
(``PYTHONUNBUFFERED``) so the startup line that carries the ephemeral port
arrives as soon as the socket is bound.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: ``repro serve`` prints ``... on http://HOST:PORT`` once it is listening.
_LISTENING = re.compile(rb"on http://([0-9.]+):(\d+)")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


def _request(host: str, port: int, method: str, path: str, timeout: float = 10.0):
    """One short-lived HTTP/1.1 exchange -> ``(status, body)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n".encode("ascii")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head[9:12]), body


class Server:
    """One running ``repro serve`` process."""

    def __init__(
        self,
        root: Path,
        kb_dir: Path,
        users_path: Path,
        cache_entries: int = 0,
        launcher: Optional[Path] = None,
        spans_path: Optional[Path] = None,
    ) -> None:
        argv: List[str] = [
            "serve", "--kb", str(kb_dir), "--users", str(users_path), "--port", "0",
        ]
        if cache_entries:
            argv += ["--cache-entries", str(cache_entries)]
        if launcher is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(launcher), "--spans", str(spans_path), "--", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self._output = b""

    def wait_ready(self) -> float:
        """Block until ``GET /health`` answers 200; returns seconds since spawn."""
        deadline = self.started + BOOT_TIMEOUT_S
        stdout = self.process.stdout
        while not self.port:
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise ServerError(f"server did not start: {self._output[-2000:]!r}")
            ready, _, _ = select.select([stdout], [], [], 0.05)
            if ready:
                chunk = os.read(stdout.fileno(), 65536)
                self._output += chunk
                match = _LISTENING.search(self._output)
                if match:
                    self.port = int(match.group(2))
        while True:
            try:
                status, _ = _request(self.host, self.port, "GET", "/health")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise ServerError("server never answered GET /health with 200")
            time.sleep(0.001)

    def get_json(self, path: str) -> Dict:
        status, body = _request(self.host, self.port, "GET", path)
        if status != 200:
            raise ServerError(f"GET {path} -> {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
