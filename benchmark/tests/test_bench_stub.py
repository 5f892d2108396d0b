"""The loopback stub serves fixture completions to HTTPBackend and counts them."""

import json
import threading
import urllib.request

import pytest

import stub_server
from sgqa import llm


@pytest.fixture
def stub(monkeypatch, tmp_path):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("NETRC", str(tmp_path / "absent"))
    monkeypatch.setattr(llm, "RETRY_BASE_DELAY", 0.0)
    request = llm.qa_request("Q: where?\nA:", "bench-model")
    extraction = llm.extraction_request("Document:\nx\nEntities:", "bench-model")
    fixtures = {llm.request_key(request): " Paris.", llm.request_key(extraction): "\nx\n"}
    server = stub_server.StubServer(fixtures, latency=0.0, max_connections=2)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, request, extraction
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _stats(base):
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
        return json.loads(response.read())


def test_serves_fixture_and_counts(stub):
    base, request, extraction = stub
    backend = llm.HTTPBackend(f"{base}/v1/completions")
    ping = llm.GenerationRequest(model_id=stub_server.PING_MODEL, prompt="ping")
    assert backend.complete(ping) == "pong"
    assert backend.complete(request) == " Paris."
    assert backend.complete(request) == " Paris."
    assert backend.complete(extraction) == "\nx\n"
    stats = _stats(base)
    assert stats == {"requests": 3, "distinct": 2, "pings": 1, "unknown": 0}
    assert _stats(base)["requests"] == 0  # reading the counts resets them


def test_unknown_request_is_an_error(stub):
    base, _, _ = stub
    backend = llm.HTTPBackend(f"{base}/v1/completions")
    with pytest.raises(llm.BackendError):
        backend.complete(llm.extraction_request("not in the fixture", "bench-model"))
    assert _stats(base)["unknown"] == llm.RETRY_ATTEMPTS
