"""The `repro serve` subprocess and the two wire clients the benchmark drives.

Only the standard library: the benchmark talks to the server exactly as any
outside client would, over JSON lines on TCP and HTTP/1.1 keep-alive.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

MODEL_ID = "default"
_BANNERS = {
    "tcp": re.compile(r"serving on ([\d.]+):(\d+)"),
    "http": re.compile(r"http on ([\d.]+):(\d+)"),
}
BOOT_TIMEOUT_S = 120.0


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class Server:
    """One `repro serve` process over an ingested store and a saved model.

    Spawned with fault injection and worker fan-out variables removed and
    ``--workers 1``, so a stray environment cannot arm faults or switch
    executors.  A reader thread drains stderr for the whole life of the
    process, so log output can never block the server on a full pipe.
    """

    def __init__(self, root: Path, store: Path, model: Path) -> None:
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_WORKERS", None)
        env["PYTHONPATH"] = str(root / "src")
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store), "--model", str(model),
            "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
            "--workers", "1", "--allow-shutdown",
        ]
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.addresses: dict[str, tuple[str, int]] = {}
        self.stderr: list[str] = []
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self, first_request: dict) -> float:
        """Spawn, wait for both listeners, answer ``first_request`` over TCP.

        Returns the seconds from spawn to the first answered request."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(BOOT_TIMEOUT_S) or len(self.addresses) < 2:
            self.stop()
            raise RuntimeError(f"server did not come up: {self.stderr[-20:]!r}")
        with TcpClient(*self.addresses["tcp"]) as client:
            response = client.request(first_request)
        elapsed = time.perf_counter() - started
        if not response.get("ok"):
            self.stop()
            raise RuntimeError(f"first request failed: {response!r}")
        return elapsed

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)
            for name, pattern in _BANNERS.items():
                match = pattern.search(line)
                if match:
                    self.addresses[name] = (match.group(1), int(match.group(2)))
            if len(self.addresses) == len(_BANNERS):
                self._ready.set()
        self._ready.set()  # EOF: the process died; start() reports it

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """Ask for a drain over the wire, then make sure the process ended."""
        if self.proc is None:
            return
        if self.proc.poll() is None and "tcp" in self.addresses:
            try:
                with TcpClient(*self.addresses["tcp"], timeout=10) as client:
                    client.request({"op": "shutdown"})
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)


class TcpClient:
    """One JSON-lines connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        self.sock.sendall(_encode(payload))
        return json.loads(self.reader.readline())

    def closed_loop(self, payloads: list[dict], depth: int) -> list[dict]:
        """Keep ``depth`` requests in flight until every payload is answered.

        Each payload gets its list index as ``id``; responses come back in
        payload order."""
        answers: list[dict | None] = [None] * len(payloads)
        sent = 0
        for sent in range(min(depth, len(payloads))):
            self.sock.sendall(_encode({**payloads[sent], "id": sent}))
        sent = min(depth, len(payloads))
        for _ in range(len(payloads)):
            response = json.loads(self.reader.readline())
            answers[response["id"]] = response
            if sent < len(payloads):
                self.sock.sendall(_encode({**payloads[sent], "id": sent}))
                sent += 1
        return answers  # type: ignore[return-value]

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HttpClient:
    """One HTTP/1.1 keep-alive connection to the gateway."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(self, method: str, route: str, payload: dict | None = None):
        """(status, parsed JSON body) of one request."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, f"/v1/models/{MODEL_ID}/{route}", body, headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()
