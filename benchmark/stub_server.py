#!/usr/bin/env python3
"""Loopback completions server for the benchmark's live workload.

Serves the replay fixture over the completions API that `HTTPBackend` speaks:
it rebuilds each request's `request_key` from the POST body (`stop == ["\\n"]`
marks a QA request), sleeps a fixed latency, and answers
`{"choices": [{"text": ...}]}`. Each response goes out in a single write on a
TCP_NODELAY socket, so no Nagle / delayed-ACK stall is added to the latency.

It holds at most `MAX_CONNECTIONS` connections at once and counts what it
serves; `GET /stats` returns the counts since the previous `GET /stats`. A
POST whose model is `PING_MODEL` is answered at once and counted apart, so a
client can time a round trip without it counting as a backend call.

    python3 benchmark/stub_server.py --fixture replay.jsonl

prints `port <n>` on its first line of output once it is listening.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from pathlib import Path

PING_MODEL = "bench-ping"
LATENCY_MS = 10.0  # fixed wait before each fixture answer
MAX_CONNECTIONS = 2  # the live workload's worker count, nproc on the reference machine


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 60  # an idle keep-alive connection is dropped after this many seconds

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, status: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        server: StubServer = self.server  # type: ignore[assignment]
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with server.lock:
            payload = dict(server.stats, distinct=len(server.seen))
            server.reset()
        self._reply(200, payload)

    def do_POST(self):
        server: StubServer = self.server  # type: ignore[assignment]
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body.get("model") == PING_MODEL:
            with server.lock:
                server.stats["pings"] += 1
            self._reply(200, {"choices": [{"text": "pong"}]})
            return
        make = server.qa_request if body.get("stop") == ["\n"] else server.extraction_request
        key = server.request_key(make(body["prompt"], body["model"]))
        text = server.fixtures.get(key)
        time.sleep(server.latency)
        with server.lock:
            if text is None:
                server.stats["unknown"] += 1
            else:
                server.stats["requests"] += 1
                server.seen.add(key)
        if text is None:
            self._reply(500, {"error": f"no fixture for key {key}"})
        else:
            self._reply(200, {"choices": [{"text": text}]})


class StubServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, fixtures: dict[str, str], latency: float, max_connections: int):
        from sgqa.llm import extraction_request, qa_request, request_key

        self.fixtures = fixtures
        self.latency = latency
        self.request_key = request_key
        self.extraction_request = extraction_request
        self.qa_request = qa_request
        self.lock = threading.Lock()
        self.reset()
        self._slots = threading.BoundedSemaphore(max_connections)
        super().__init__(("127.0.0.1", 0), _Handler)

    def reset(self):
        self.stats = {"requests": 0, "pings": 0, "unknown": 0}
        self.seen: set[str] = set()

    def process_request(self, request, client_address):
        self._slots.acquire()  # the accept loop waits while all slots are held
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def load_fixtures(path) -> dict[str, str]:
    fixtures = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                fixtures[entry["key"]] = entry["text"]
    return fixtures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", required=True)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sgqa package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    server = StubServer(load_fixtures(args.fixture), LATENCY_MS / 1000.0, MAX_CONNECTIONS)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
