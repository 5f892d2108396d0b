import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sgqa.llm import (
    BackendError,
    CompletionCache,
    GenerationRequest,
    HTTPBackend,
    MissingFixtureError,
    ReplayBackend,
    cached_generate,
    extraction_request,
    generate,
    qa_request,
    request_key,
    write_replay_fixture,
)


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
    assert completion.latency == 0.0


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
    cache = CompletionCache(tmp_path / "cache")

    first = cached_generate(request, backend, cache)
    assert first.cached is False and first.text == "value"
    second = cached_generate(request, backend, cache)
    assert second.cached is True and second.text == "value"
    assert second.latency == 0.0
    assert backend.calls == 1


def test_cache_distinguishes_temperature(tmp_path):
    cache = CompletionCache(tmp_path / "cache")
    r0 = make_request(temperature=0.0)
    r1 = make_request(temperature=1.0)
    backend = ReplayBackend({request_key(r0): "cold", request_key(r1): "hot"})
    assert cached_generate(r0, backend, cache).text == "cold"
    assert cached_generate(r1, backend, cache).text == "hot"
    assert backend.calls == 2


def test_cache_corruption_regenerates(tmp_path, caplog):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    cache = CompletionCache(tmp_path / "cache")
    cached_generate(request, backend, cache)

    entry_path = cache._entry_path(request_key(request))
    entry_path.write_text("{not json", encoding="utf-8")
    with caplog.at_level("WARNING"):
        completion = cached_generate(request, backend, cache)
    assert completion.text == "value"
    assert completion.cached is False
    assert "corrupt cache entry" in caplog.text
    # entry replaced and readable again
    assert json.loads(entry_path.read_text())["text"] == "value"


def test_concurrent_calls_after_warmup_hit_cache(tmp_path):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    cache = CompletionCache(tmp_path / "cache")
    cached_generate(request, backend, cache)  # warm up

    results = []
    with ThreadPoolExecutor(max_workers=16) as pool:
        futures = [pool.submit(cached_generate, request, backend, cache)
                   for _ in range(100)]
        results = [f.result() for f in futures]
    assert backend.calls == 1
    assert all(r.text == "value" and r.cached for r in results)
    assert len(list(cache.objects.glob("*.json"))) == 1


def test_concurrent_cold_cache_single_entry(tmp_path):
    request = make_request()
    backend = ReplayBackend({request_key(request): "value"})
    cache = CompletionCache(tmp_path / "cache")
    barrier = threading.Barrier(8)

    def call():
        barrier.wait()
        return cached_generate(request, backend, cache)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [f.result() for f in [pool.submit(call) for _ in range(8)]]
    assert all(r.text == "value" for r in results)
    assert len(list(cache.objects.glob("*.json"))) == 1


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
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

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


@pytest.mark.parametrize("payload", [{"choices": [{}]}, {"choices": []}, {"result": "x"}, None])
def test_http_backend_malformed_200_fails_fast(monkeypatch, payload):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    session = StubSession([StubResponse(200, payload)] * 3)
    backend = HTTPBackend("http://api.test", session=session, api_key="k")
    with pytest.raises(BackendError, match=r"neither choices\[0\]\.text nor text"):
        backend.complete(make_request())
    assert len(session.requests) == 1
    assert sleeps == []
