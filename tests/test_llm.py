import json
import os
import random
import socket
import socketserver
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sgqa.llm import (
    BackendError,
    CompletionCache,
    GenerationRequest,
    HTTPBackend,
    MissingFixtureError,
    RETRY_AFTER_MAX,
    ReplayBackend,
    cached_generate,
    extraction_request,
    generate,
    qa_request,
    request_key,
    write_replay_fixture,
)
from sgqa import transport


def make_request(**overrides):
    base = dict(model_id="m", prompt="p", max_tokens=300, temperature=0.0,
                stop_sequences=())
    base.update(overrides)
    return GenerationRequest(**base)


# --------------------------------------------------------------- request keys

def test_key_purity_equal_requests():
    assert request_key(make_request()) == request_key(make_request())


@pytest.mark.parametrize("change", [
    {"model_id": "other"},
    {"prompt": "different"},
    {"max_tokens": 128},
    {"max_tokens": None},
    {"temperature": 0.5},
    {"stop_sequences": ("\n",)},
])
def test_key_changes_with_any_field(change):
    assert request_key(make_request()) != request_key(make_request(**change))


def test_request_factories():
    ext = extraction_request("p", "m")
    assert ext.max_tokens == 300 and ext.temperature == 0.0
    qa = qa_request("p", "m")
    assert qa.max_tokens is None
    assert qa.effective_max_tokens == 512
    assert qa.stop_sequences == ("\n",)


def test_negative_temperature_rejected():
    with pytest.raises(ValueError):
        make_request(temperature=-1.0)


# --------------------------------------------------------------- replay

def test_replay_backend_serves_fixture(tmp_path):
    request = make_request()
    path = tmp_path / "replay.jsonl"
    write_replay_fixture(path, [(request, "fixture text")])
    backend = ReplayBackend.from_file(path)
    completion = generate(request, backend)
    assert completion.text == "fixture text"
    assert completion.cached is False
    assert completion.latency >= 0.0


def test_replay_fixture_repeated_key_later_wins(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text('{"key": "k", "text": "old"}\n{"key": "k", "text": "new"}\n',
                    encoding="utf-8")
    assert ReplayBackend.from_file(path)._fixtures == {"k": "new"}


def test_replay_backend_missing_key():
    backend = ReplayBackend({})
    with pytest.raises(MissingFixtureError, match="no replay fixture"):
        generate(make_request(), backend)


def test_stop_sequence_truncation():
    request = make_request(stop_sequences=("\n",))
    backend = ReplayBackend({request_key(request): "Stange\nextra"})
    assert generate(request, backend).text == "Stange"


def test_earliest_stop_sequence_wins():
    request = make_request(stop_sequences=("##", "\n"))
    backend = ReplayBackend({request_key(request): "a\nb##c"})
    assert generate(request, backend).text == "a"


def test_completion_never_contains_stop_sequence():
    request = make_request(stop_sequences=("\n", "Q:"))
    backend = ReplayBackend({request_key(request): "answer Q: more\nstuff"})
    text = generate(request, backend).text
    assert "\n" not in text and "Q:" not in text


# --------------------------------------------------------------- cache

def test_cached_generate_hit_and_miss(tmp_path):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    with CompletionCache(tmp_path / "cache") as cache:
        first = cached_generate(request, backend, cache)
        second = cached_generate(request, backend, cache)
    assert first.cached is False and first.text == "value"
    assert second.cached is True and second.text == "value"
    assert second.latency == 0.0
    assert backend.calls == 1


def test_cache_distinguishes_temperature(tmp_path):
    r0 = make_request(temperature=0.0)
    r1 = make_request(temperature=1.0)
    backend = ReplayBackend({request_key(r0): "cold", request_key(r1): "hot"})
    with CompletionCache(tmp_path / "cache") as cache:
        assert cached_generate(r0, backend, cache).text == "cold"
        assert cached_generate(r1, backend, cache).text == "hot"
    assert backend.calls == 2


def log_lines(cache):
    return cache.path.read_text(encoding="utf-8").splitlines()


def test_cache_corruption_regenerates(tmp_path, caplog):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    with CompletionCache(tmp_path / "cache") as cache:
        cached_generate(request, backend, cache)

    cache.path.write_text("{not json\n", encoding="utf-8")
    with caplog.at_level("WARNING"), CompletionCache(tmp_path / "cache") as cache:
        completion = cached_generate(request, backend, cache)
    assert completion.text == "value"
    assert completion.cached is False
    assert f"{cache.path}:1: corrupt line skipped" in caplog.text
    # the regenerated entry follows the corrupt line and is served on reopen
    assert json.loads(log_lines(cache)[1])["text"] == "value"
    with CompletionCache(tmp_path / "cache") as reopened:
        assert reopened.get(request_key(request))["text"] == "value"


def test_concurrent_calls_after_warmup_hit_cache(tmp_path):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    cache = CompletionCache(tmp_path / "cache")
    cached_generate(request, backend, cache)  # warm up

    results = []
    with ThreadPoolExecutor(max_workers=16) as pool:
        futures = [pool.submit(cached_generate, request, backend, cache)
                   for _ in range(100)]
        results = [f.result(timeout=10) for f in futures]
    cache.close()
    assert backend.calls == 1
    assert all(r.text == "value" and r.cached for r in results)
    assert len(log_lines(cache)) == 1


def test_concurrent_cold_cache_single_entry(tmp_path):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    cache = CompletionCache(tmp_path / "cache")
    barrier = threading.Barrier(8, timeout=10)

    def call():
        barrier.wait()
        return cached_generate(request, backend, cache)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [f.result(timeout=10) for f in [pool.submit(call) for _ in range(8)]]
    cache.close()
    assert all(r.text == "value" for r in results)
    assert len(log_lines(cache)) == 1


def test_cache_drops_torn_last_line(tmp_path, caplog):
    first, torn = make_request(prompt="first"), make_request(prompt="torn")
    with CompletionCache(tmp_path / "cache") as cache:
        cache.put(request_key(first), "one", "replay")
    with open(cache.path, "ab") as fh:  # a put killed mid-write
        fh.write(b'{"key": "' + request_key(torn).encode() + b'", "text": "tw')
    whole = cache.path.read_bytes()

    with caplog.at_level("WARNING"), CompletionCache(tmp_path / "cache") as cache:
        assert f"{cache.path}:2: corrupt line skipped" in caplog.text
        assert cache.path.read_bytes() == whole  # skipped, not cut off
        assert cache.get(request_key(first))["text"] == "one"
        assert cache.get(request_key(torn)) is None
        cache.put(request_key(torn), "two", "replay")
    # the put lands on a line of its own after the torn one
    assert cache.path.read_bytes().startswith(whole + b'\n{"key": ')
    assert len(log_lines(cache)) == 3
    with CompletionCache(tmp_path / "cache") as cache:
        assert [cache.get(request_key(r))["text"] for r in (first, torn)] == ["one", "two"]


def test_cache_opened_during_another_append_keeps_that_line(tmp_path, caplog):
    """A cache opened while another process's append is in flight sees a
    torn last line. Once that append completes, its line and the cache's own
    puts are all whole."""
    cache_dir = tmp_path / "cache"
    CompletionCache(cache_dir).close()
    line = json.dumps({"key": "kA", "text": "A", "backend_id": "replay"}).encode() + b"\n"
    fd = os.open(cache_dir / "completions.jsonl", os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, line[:30])  # the other process's append, part way
        with CompletionCache(cache_dir) as cache:
            os.write(fd, line[30:])  # ... and the rest of it
            cache.put("kB", "B", "replay")
    finally:
        os.close(fd)
    caplog.clear()
    with caplog.at_level("WARNING"), CompletionCache(cache_dir) as cache:
        assert caplog.text == ""  # the blank line before B's is no corrupt line
        assert cache.get("kA") == {"text": "A", "backend_id": "replay"}
        assert cache.get("kB") == {"text": "B", "backend_id": "replay"}


def test_cache_skips_corrupt_middle_line(tmp_path, caplog):
    requests = [make_request(prompt=p) for p in ("a", "b")]
    with CompletionCache(tmp_path / "cache") as cache:
        cache.put(request_key(requests[0]), "A", "replay")
    with open(cache.path, "ab") as fh:
        fh.write(b'{"key": "x", "te\n["not", "an", "entry"]\n')
    with CompletionCache(tmp_path / "cache") as cache:
        cache.put(request_key(requests[1]), "B", "replay")

    with caplog.at_level("WARNING"), CompletionCache(tmp_path / "cache") as cache:
        assert [cache.get(request_key(r))["text"] for r in requests] == ["A", "B"]
    assert f"{cache.path}:2: corrupt line skipped" in caplog.text
    assert f"{cache.path}:3: not a cache entry" in caplog.text
    assert len(log_lines(cache)) == 4


class SlowBackend(ReplayBackend):
    """Replay backend that takes `delay` seconds per call and fails the first
    `failures` calls."""

    def __init__(self, fixtures, delay, failures=0):
        super().__init__(fixtures)
        self.delay = delay
        self.failures = failures
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            fail = self.calls <= self.failures
        time.sleep(self.delay)
        if fail:
            raise RuntimeError("backend down")
        return self._fixtures[request_key(request)]


def race(cache, request, backend, threads=8):
    """`threads` threads released together behind a barrier, each calling
    cached_generate once; returns each one's completion or exception."""
    barrier = threading.Barrier(threads, timeout=10)

    def call():
        barrier.wait()
        try:
            return cached_generate(request, backend, cache)
        except RuntimeError as exc:
            return exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [f.result(timeout=10) for f in [pool.submit(call) for _ in range(threads)]]
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_misses_make_one_backend_call(tmp_path):
    request = make_request()
    backend = SlowBackend({request_key(request): "value"}, delay=0.2)
    with CompletionCache(tmp_path / "cache") as cache:
        results = race(cache, request, backend)
        # a miss that lost the race to a finished call is served from the index
        late = cache.fill(request_key(request), lambda: pytest.fail("second backend call"))
    assert backend.calls == 1
    assert [r.text for r in results] == ["value"] * 8
    assert late.text == "value" and late.cached
    assert len(log_lines(cache)) == 1


def test_failed_call_fails_every_waiter_and_is_retried(tmp_path):
    request = make_request()
    backend = SlowBackend({request_key(request): "value"}, delay=0.5, failures=1)
    with CompletionCache(tmp_path / "cache") as cache:
        results = race(cache, request, backend)
        assert backend.calls == 1
        assert all(isinstance(r, RuntimeError) and str(r) == "backend down" for r in results)
        assert log_lines(cache) == []
        assert cached_generate(request, backend, cache).text == "value"
    assert backend.calls == 2
    assert len(log_lines(cache)) == 1


def test_two_caches_on_one_directory_both_append(tmp_path):
    r1, r2 = make_request(prompt="one"), make_request(prompt="two")
    backend = ReplayBackend({request_key(r1): "1", request_key(r2): "2"})
    with CompletionCache(tmp_path / "cache") as a, CompletionCache(tmp_path / "cache") as b:
        cached_generate(r1, backend, a)
        cached_generate(r2, backend, b)
    with CompletionCache(tmp_path / "cache") as reopened:
        assert [cached_generate(r, backend, reopened).text for r in (r1, r2)] == ["1", "2"]
    assert backend.calls == 2
    assert len(log_lines(reopened)) == 2


# --------------------------------------------------------------- http backend

class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers))
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


class StubResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._payload


def test_http_backend_success():
    session = StubSession([StubResponse(200, {"choices": [{"text": "hello"}]})])
    backend = HTTPBackend("http://api.test/v1/completions", session=session,
                          api_key="secret")
    request = qa_request("prompt text", "model-x")
    assert backend.complete(request) == "hello"
    url, body, headers = session.requests[0]
    assert body["model"] == "model-x"
    assert body["stop"] == ["\n"]
    assert body["max_tokens"] == 512
    assert headers["Authorization"] == "Bearer secret"


def test_http_backend_retries_on_server_error(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([
        StubResponse(500, text="boom"),
        StubResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    assert backend.complete(make_request()) == "ok"
    assert len(session.requests) == 2


def test_http_backend_gives_up_after_three_attempts(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = StubSession([StubResponse(500, text="x")] * 3)
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    with pytest.raises(BackendError):
        backend.complete(make_request())
    assert len(session.requests) == 3


def test_http_backend_client_error_not_retried():
    session = StubSession([StubResponse(401, text="denied")])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    with pytest.raises(BackendError, match="401"):
        backend.complete(make_request())
    assert len(session.requests) == 1


@pytest.mark.parametrize("payload", [
    {"choices": [{}]}, {"choices": []}, {"result": "x"}, None,
    {"choices": [{"text": ["a", "b"]}]}, {"choices": [{"text": 7}]},
    {"choices": [{"text": None}]}, {"text": {"value": "x"}},
])
def test_http_backend_malformed_200_fails_fast(tmp_path, monkeypatch, payload):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([StubResponse(200, payload)] * 3)
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    with CompletionCache(tmp_path / "cache") as cache:
        with pytest.raises(BackendError, match=r"neither choices\[0\]\.text nor text"):
            cached_generate(make_request(), backend, cache)
    assert len(session.requests) == 1
    assert sleeps == []
    assert log_lines(cache) == []


def test_http_backend_honours_retry_after_seconds(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([
        StubResponse(429, headers={"Retry-After": "7"}),
        StubResponse(503, headers={"Retry-After": " 2 "}),
        StubResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    assert backend.complete(make_request()) == "ok"
    assert sleeps == [7.0, 2.0]


def test_http_backend_fails_at_once_on_retry_after_above_cap(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([
        StubResponse(429, headers={"Retry-After": "86400"}),
        StubResponse(200, {"choices": [{"text": "never read"}]}),
    ])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    with pytest.raises(BackendError, match="HTTP 429: Retry-After: 86400 exceeds the 60 s cap"):
        backend.complete(make_request())
    assert len(session.requests) == 1
    assert sleeps == []


def test_http_backend_honours_retry_after_at_cap(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([
        StubResponse(503, headers={"Retry-After": str(int(RETRY_AFTER_MAX))}),
        StubResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    assert backend.complete(make_request()) == "ok"
    assert sleeps == [RETRY_AFTER_MAX]


def test_http_backend_full_jitter_backoff(monkeypatch):
    sleeps, bounds = [], []
    monkeypatch.setattr("time.sleep", sleeps.append)
    monkeypatch.setattr(random, "uniform", lambda a, b: bounds.append((a, b)) or b / 4)
    session = StubSession([
        # Retry-After counts only on 429 and 503, and only in seconds
        StubResponse(500, headers={"Retry-After": "30"}),
        StubResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
        StubResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    assert backend.complete(make_request()) == "ok"
    assert bounds == [(0, 1.0), (0, 2.0)]
    assert sleeps == [0.25, 0.5]


# --------------------------------------------------------------- transport

class _CompletionHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # a connection the client leaves open ends its thread after this

    def log_message(self, format, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests.append((self.path, self.headers["Host"], body))
            status, headers = server.replies.pop(0) if server.replies else (200, {})
        payload = json.dumps({"choices": [{"text": "ok"}]} if status == 200 else {}).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # closes the connection after the reply, without a Connection: close header
        self.close_connection = server.close_after_reply

    def do_CONNECT(self):
        with self.server.lock:
            self.server.tunnels.append(self.path)
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self.close_connection = True


class CompletionServer(ThreadingHTTPServer):
    """An in-thread completions server: it answers each POST with the next
    of `replies`, (status, headers), or else with a 200 completion "ok", and
    records the connections, requests and CONNECT tunnels it sees."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _CompletionHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = []  # (request-target, Host header, JSON body)
        self.tunnels = []
        self.replies = []
        self.close_after_reply = False
        self.base = f"http://127.0.0.1:{self.server_address[1]}"
        self.url = f"{self.base}/v1/completions"


# RFC 6761 reserves .invalid; lookups of it are also refused in-process below
UNRESOLVABLE = "completions.invalid"


@pytest.fixture
def server(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    lookup = socket.getaddrinfo

    def resolve(host, *args, **kwargs):
        if host == UNRESOLVABLE:
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", resolve)
    srv = CompletionServer()
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def call(backend, prompt="p"):
    try:
        return backend.complete(make_request(prompt=prompt))
    finally:
        backend.close()


def test_connection_closed_by_server_is_resent_once(server, monkeypatch, caplog):
    sleeps, sends = [], []
    monkeypatch.setattr("time.sleep", sleeps.append)
    send = transport._send
    monkeypatch.setattr(transport, "_send", lambda *args: sends.append(1) or send(*args))
    server.close_after_reply = True
    backend = HTTPBackend(server.url, api_key="k")
    with caplog.at_level("WARNING"):
        try:
            assert [backend.complete(make_request(prompt=p)) for p in "abc"] == ["ok"] * 3
        finally:
            backend.close()
    # calls 2 and 3 each try the kept connection, then send once on a new one
    assert len(sends) == 5
    assert [body["prompt"] for _, _, body in server.requests] == ["a", "b", "c"]
    assert server.connections == 3
    assert sleeps == [] and caplog.text == ""


def test_concurrent_calls_open_one_connection_per_thread_at_most(server):
    backend = HTTPBackend(server.url, api_key="k")
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(backend.complete, make_request(prompt=str(i)))
                       for i in range(40)]
            assert [f.result(timeout=10) for f in futures] == ["ok"] * 40
    finally:
        backend.close()
    assert len(server.requests) == 40
    assert 1 <= server.connections <= 8


def test_http_429_retry_after_is_read_in_any_case(server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    server.replies = [(429, {"retry-after": "3"})]
    assert call(HTTPBackend(server.url, api_key="k")) == "ok"
    assert sleeps == [3.0]
    assert len(server.requests) == 2


def test_http_proxy_gets_the_absolute_uri(server, monkeypatch):
    monkeypatch.setenv("http_proxy", server.base)
    endpoint = f"http://{UNRESOLVABLE}:8080/v1/completions"
    assert call(HTTPBackend(endpoint, api_key="k")) == "ok"
    assert server.requests[0][:2] == (endpoint, f"{UNRESOLVABLE}:8080")


def test_no_proxy_host_is_reached_directly(server, monkeypatch):
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        dead_proxy = f"http://127.0.0.1:{probe.getsockname()[1]}"
    monkeypatch.setenv("http_proxy", dead_proxy)
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    assert call(HTTPBackend(server.url, api_key="k")) == "ok"
    assert server.requests[0][0] == "/v1/completions"


def test_https_proxy_tunnels_with_connect(server, monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("https_proxy", server.base)
    backend = HTTPBackend(f"https://{UNRESOLVABLE}/v1/completions", api_key="k")
    with pytest.raises(BackendError, match="transport error: Tunnel connection failed: 502"):
        call(backend)
    assert server.tunnels == [f"{UNRESOLVABLE}:443"] * 3
    assert server.requests == []


# --------------------------------------------------------------- HTTP/1.1 framing

OK_BODY = b'{"choices": [{"text": "ok"}]}'


def ok_reply(head=b"HTTP/1.1 200 OK\r\n", extra=b""):
    return head + extra + b"Content-Length: %d\r\n\r\n" % len(OK_BODY) + OK_BODY


class _RawHandler(socketserver.StreamRequestHandler):
    timeout = 5  # a connection the client leaves open ends its thread after this

    def handle(self):
        server = self.server
        with server.lock:
            server.connections += 1
        while True:
            length = 0
            line = self.rfile.readline()
            if not line:
                return
            while line not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
                line = self.rfile.readline()
            self.rfile.read(length)
            with server.lock:
                server.requests += 1
                reply, close = server.replies[0] if len(server.replies) == 1 else server.replies.pop(0)
            self.connection.sendall(reply)
            if close:
                return


class RawServer(socketserver.ThreadingTCPServer):
    """A server that answers each request with exact bytes: the next of
    `replies`, (bytes, close the connection after them), the last one
    repeating. It counts the connections it accepts and the requests it reads."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _RawHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.replies = [(ok_reply(), False)]
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/completions"


@pytest.fixture
def raw_server(monkeypatch):
    for name in ("http_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    srv = RawServer()
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def call_twice(server, monkeypatch):
    """Two calls through one backend; returns their texts and the number of
    times `transport._send` ran."""
    sends = []
    send = transport._send
    monkeypatch.setattr(transport, "_send", lambda *args: sends.append(1) or send(*args))
    backend = HTTPBackend(server.url, api_key="k", timeout=5)
    try:
        texts = [backend.complete(make_request(prompt=p)) for p in "ab"]
    finally:
        backend.close()
    return texts, len(sends)


def test_chunked_reply_with_extension_and_trailer(raw_server, monkeypatch):
    raw_server.replies = [(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 999\r\n\r\n"
        b"%x;name=value\r\n%s\r\n%X\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
        % (10, OK_BODY[:10], len(OK_BODY) - 10, OK_BODY[10:]), False)]
    # the second call reads its reply from the same connection
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)
    assert raw_server.connections == 1 and raw_server.requests == 2


def test_reply_without_length_is_read_to_the_close(raw_server, monkeypatch):
    raw_server.replies = [(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
                           + OK_BODY, True)]
    # a reused connection would fail before its status line and be sent again
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)
    assert raw_server.connections == 2 and raw_server.requests == 2


def test_interim_100_continue_is_skipped(raw_server, monkeypatch):
    raw_server.replies = [(b"HTTP/1.1 100 Continue\r\n\r\n" + ok_reply(), False)]
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)
    assert raw_server.connections == 1


def test_http_1_0_reply_without_keep_alive_closes_its_connection(raw_server, monkeypatch):
    raw_server.replies = [(ok_reply(b"HTTP/1.0 200 OK\r\n"), False)]
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)
    assert raw_server.connections == 2


def test_http_1_0_reply_with_keep_alive_keeps_its_connection(raw_server, monkeypatch):
    raw_server.replies = [(ok_reply(b"HTTP/1.0 200 OK\r\n", b"Connection: Keep-Alive\r\n"), False)]
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)
    assert raw_server.connections == 1


def test_head_of_100_header_lines_of_65536_bytes_is_read(raw_server, monkeypatch):
    long_line = b"X-Long: " + b"a" * (transport.MAX_LINE - 10) + b"\r\n"
    assert len(long_line) == transport.MAX_LINE
    many = b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(transport.MAX_HEADERS - 2))
    raw_server.replies = [(ok_reply(extra=long_line + many), False)]
    assert call_twice(raw_server, monkeypatch) == (["ok", "ok"], 2)


@pytest.mark.parametrize("reply, error", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY) + 1, OK_BODY),
     r"IncompleteRead\(29 bytes read, 1 more expected\)"),
    (ok_reply(extra=b"X-Long: " + b"a" * (transport.MAX_LINE - 9) + b"\r\n"),
     "got more than 65536 bytes when reading header line"),
    (ok_reply(extra=b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(transport.MAX_HEADERS))),
     "got more than 100 headers"),
    (ok_reply(b"HTTP/2 200 OK\r\n"), r"b'HTTP/2 200 OK\\r\\n'"),
    (ok_reply(extra=b"Content-Length: 1\r\n"), "bad or conflicting Content-Length"),
], ids=["short-body", "long-header-line", "101-headers", "bad-status-line", "two-lengths"])
def test_framing_error_is_a_transport_error(raw_server, monkeypatch, reply, error):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    raw_server.replies = [(reply, True)]
    backend = HTTPBackend(raw_server.url, api_key="k", timeout=5)
    with pytest.raises(BackendError, match=f"^transport error: {error}"):
        call(backend)
    assert raw_server.requests == raw_server.connections == 3
    assert len(sleeps) == 2
