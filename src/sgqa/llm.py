"""Text-generation backends with a persistent completion cache.

Two backends share one contract, `complete` and `close`: a live
completions-style HTTP backend and a replay backend serving pre-recorded
fixtures, which makes every pipeline run a pure function of its inputs.
Completions are cached keyed by a digest of the full request, so interrupted
runs resume without new calls. The cache is one append-only log indexed in
memory (the log-structured hash table of Bitcask, Sheehy & Smith 2010), and
concurrent misses on one key share one backend call. Replay fixtures are written through `jsonl.write_jsonl`, so a
fixture file is whole or unchanged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

from .jsonl import append_line, open_log, read_log, read_rows, row_fault, write_jsonl

logger = logging.getLogger(__name__)

# Generation budgets: extraction runs are capped at 300 tokens; QA runs are
# effectively unbounded (single-line stop) but real APIs need a number.
EXTRACTION_MAX_TOKENS = 300
QA_MAX_TOKENS_CAP = 512

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 1.0
RETRY_AFTER_MAX = 60.0  # seconds; a server that asks for longer fails the call

API_KEY_ENV = "SGQA_API_KEY"

CACHE_ENTRY_FIELDS = {"key": str, "text": str, "backend_id": str}


class BackendError(RuntimeError):
    """The backend failed after exhausting retries."""


class MissingFixtureError(KeyError):
    """The replay backend has no fixture for a request key."""


@dataclass(frozen=True)
class GenerationRequest:
    model_id: str
    prompt: str
    max_tokens: int | None = None  # None: use the QA cap
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def effective_max_tokens(self) -> int:
        return QA_MAX_TOKENS_CAP if self.max_tokens is None else self.max_tokens

    @property
    def key(self) -> str:
        """The `request_key` digest, computed on first use and kept: the
        request is immutable. No lock is taken (`functools.cached_property`
        takes one lock for every instance before Python 3.12): two threads
        that both find the digest missing both compute the same one."""
        key = self.__dict__.get("_key")
        if key is None:
            payload = json.dumps(
                {
                    "model_id": self.model_id,
                    "prompt": self.prompt,
                    "max_tokens": self.max_tokens,
                    "temperature": self.temperature,
                    "stop_sequences": list(self.stop_sequences),
                },
                sort_keys=True,
                ensure_ascii=False,
            )
            key = self.__dict__["_key"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return key


def extraction_request(prompt: str, model_id: str) -> GenerationRequest:
    return GenerationRequest(
        model_id=model_id, prompt=prompt, max_tokens=EXTRACTION_MAX_TOKENS, temperature=0.0
    )


def qa_request(prompt: str, model_id: str) -> GenerationRequest:
    """QA requests stop at the first line break and carry no real token limit."""
    return GenerationRequest(
        model_id=model_id, prompt=prompt, max_tokens=None, temperature=0.0,
        stop_sequences=("\n",),
    )


def request_key(request: GenerationRequest) -> str:
    """Content digest of every request field; equal requests share a key."""
    return request.key


@dataclass(frozen=True)
class Completion:
    text: str
    backend_id: str
    cached: bool = False
    latency: float = 0.0


def _truncate_at_stop(text: str, stop_sequences: tuple[str, ...]) -> str:
    cut = len(text)
    for stop in stop_sequences:
        idx = text.find(stop)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut]


class ReplayBackend:
    """Serves pre-recorded completions keyed by request digest.

    Fixture format: JSONL of {key, prompt_excerpt, text}; prompt_excerpt is
    informational only. Call counts are tracked so tests can assert that the
    cache prevented repeat calls.
    """

    backend_id = "replay"

    def __init__(self, fixtures: dict[str, str]):
        self._fixtures = dict(fixtures)
        self.calls = 0

    @classmethod
    def from_file(cls, path) -> "ReplayBackend":
        """Of two fixture rows with one key, the later wins."""
        return cls({row["key"]: row["text"]
                    for _, _, row in read_rows([path], {"key": str, "text": str})})

    def complete(self, request: GenerationRequest) -> str:
        self.calls += 1
        key = request_key(request)
        try:
            return self._fixtures[key]
        except KeyError:
            excerpt = request.prompt[-120:].replace("\n", "\\n")
            raise MissingFixtureError(
                f"no replay fixture for key {key} (prompt tail: {excerpt!r})"
            ) from None

    def close(self):
        """Nothing to release: the fixtures are in memory."""


def write_replay_fixture(path, entries: list[tuple[GenerationRequest, str]]):
    """Write (request, completion) pairs as a replay fixture file."""
    write_jsonl(path, (
        {"key": request_key(request), "prompt_excerpt": request.prompt[-80:], "text": text}
        for request, text in entries
    ))


class HTTPBackend:
    """Completions-style HTTP backend.

    POSTs {model, prompt, max_tokens, temperature, stop} to `endpoint` with a
    bearer token from the SGQA_API_KEY environment variable, and reads
    choices[0].text (falling back to a top-level "text"). Makes up to
    RETRY_ATTEMPTS attempts on network errors, 429 and 5xx responses; other
    4xx responses and a 200 body without a string text fail at once. Before a
    retry it waits the seconds a 429 or 503 response's Retry-After header
    asks for (RFC 9110 §10.2.3), or else a full-jitter exponential backoff,
    uniform(0, RETRY_BASE_DELAY * 2**attempt). A Retry-After above
    RETRY_AFTER_MAX seconds fails the call at once, without sleeping.

    Unless a `session` is given, requests go through a
    `transport.KeepAliveSession`, which keeps connections open between calls
    until `close`.
    """

    def __init__(self, endpoint: str, session=None, timeout: float = 120.0,
                 api_key: str | None = None):
        self._owns_session = session is None
        if session is None:
            from .transport import KeepAliveSession

            session = KeepAliveSession()
        self._session = session
        self._endpoint = endpoint
        self._timeout = timeout
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.backend_id = f"http:{endpoint}"

    def complete(self, request: GenerationRequest) -> str:
        body = {
            "model": request.model_id,
            "prompt": request.prompt,
            "max_tokens": request.effective_max_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop_sequences) or None,
        }
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        last_error = None
        for attempt in range(RETRY_ATTEMPTS):
            retry_after = None
            try:
                response = self._session.post(
                    self._endpoint, json=body, headers=headers, timeout=self._timeout
                )
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(
                        f"HTTP {response.status_code}: {response.text[:200]}"
                    )
                    retry_after = _retry_after(response)
                elif response.status_code >= 400:
                    raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                else:
                    data = response.json()
                    try:
                        text = data["choices"][0]["text"] if "choices" in data else data["text"]
                    except (KeyError, IndexError, TypeError):
                        text = None
                    if not isinstance(text, str):
                        # a well-formed reply without a string text will not gain one on retry
                        raise BackendError(
                            "HTTP 200 body has neither choices[0].text nor text as a string: "
                            f"{response.text[:200]}"
                        )
                    return text
            except BackendError:
                raise
            except Exception as exc:  # network / timeout / bad JSON
                last_error = BackendError(f"transport error: {exc}")
            if attempt < RETRY_ATTEMPTS - 1:
                delay = (random.uniform(0, RETRY_BASE_DELAY * 2**attempt)
                         if retry_after is None else retry_after)
                logger.warning("backend attempt %d failed (%s); retrying in %.1fs",
                               attempt + 1, last_error, delay)
                time.sleep(delay)
        raise last_error  # type: ignore[misc]

    def close(self):
        """Close the idle connections of the session this backend made. A
        session passed in is its caller's to close."""
        if self._owns_session:
            self._session.close()


def _retry_after(response) -> float | None:
    """The wait a 429 or 503 response asks for in a Retry-After header given
    in seconds; None for another status, no header or an HTTP-date. The
    header's name may be in any letter case. Raises
    BackendError for a wait above RETRY_AFTER_MAX."""
    if response.status_code not in (429, 503):
        return None
    value = next((value for name, value in response.headers.items()
                  if name.lower() == "retry-after"), "").strip()
    if not value.isdecimal():
        return None
    if float(value) > RETRY_AFTER_MAX:
        raise BackendError(
            f"HTTP {response.status_code}: Retry-After: {value} exceeds the "
            f"{RETRY_AFTER_MAX:g} s cap"
        )
    return float(value)


def generate(request: GenerationRequest, backend) -> Completion:
    """One backend call; the completion is truncated at the first stop sequence."""
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("raw request (key=%s):\n%s", request_key(request)[:12], request.prompt)
    start = time.monotonic()
    raw = backend.complete(request)
    latency = time.monotonic() - start
    logger.debug("raw response (%.3fs):\n%s", latency, raw)
    text = _truncate_at_stop(raw, request.stop_sequences)
    return Completion(text=text, backend_id=backend.backend_id, cached=False, latency=latency)


class CompletionCache:
    """Completions keyed by request digest, kept in one append-only log,
    cache_dir/completions.jsonl, of {key, text, backend_id} lines and read
    into an in-memory index at open.

    Crash contract:
    - Every complete line is a valid entry: `put` appends its line in one
      write, under a lock, and indexes it.
    - The log is never cut. A corrupt or mistyped line, such as a torn last
      line (a put killed mid-write), is skipped with a warning; its request
      is generated again on the next miss. If the log ends mid-line at open,
      the first put starts a new line. Of two lines with one key, the later wins.
    - The one-file-per-completion `objects/` directory of earlier versions
      is not read.

    Concurrent misses on one key make one backend call (`fill`). Several
    instances on one directory may all append; each sees the others' entries
    when reopened. `close` the cache, or use it in a `with` block.
    """

    def __init__(self, cache_dir):
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        self.path = Path(cache_dir) / "completions.jsonl"
        self._index: dict[str, tuple[str, str]] = {}  # key -> (text, backend_id)
        for line_no, row in read_log(self.path):
            if row_fault(row, CACHE_ENTRY_FIELDS) is None:
                self._index[row["key"]] = (row["text"], row["backend_id"])
            else:
                logger.warning("%s:%d: not a cache entry; skipped", self.path, line_no)
        self._log = open_log(self.path)
        self._lock = threading.Lock()
        self._flights: dict[str, Future] = {}  # key -> the result of its one backend call

    def close(self):
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def get(self, key: str) -> dict | None:
        entry = self._index.get(key)
        return None if entry is None else {"text": entry[0], "backend_id": entry[1]}

    def put(self, key: str, text: str, backend_id: str):
        line = json.dumps({"key": key, "text": text, "backend_id": backend_id},
                          ensure_ascii=False)
        with self._lock:
            append_line(self._log, line)
            self._index[key] = (text, backend_id)
            self._flights.pop(key, None)  # later callers read the index

    def fill(self, key: str, compute) -> Completion:
        """The completion for `key`, from the index or else from `compute()`,
        which is then put. However many threads ask for one missing key at
        once, one of them calls `compute` and the others wait for its
        completion or its exception. A failure puts nothing, so the next
        call retries."""
        with self._lock:
            entry = self._index.get(key)
            if entry is not None:
                return Completion(text=entry[0], backend_id=entry[1], cached=True)
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = Future()
        if not leader:
            return flight.result()
        try:
            completion = compute()
            self.put(key, completion.text, completion.backend_id)
        except BaseException as exc:
            with self._lock:
                self._flights.pop(key, None)
            flight.set_exception(exc)
            raise
        flight.set_result(completion)
        return completion


def cached_generate(request: GenerationRequest, backend, cache: CompletionCache) -> Completion:
    """Serve from cache when possible; on a miss, generate and append before
    returning. Concurrent misses on one request share one backend call."""
    key = request_key(request)
    entry = cache.get(key)
    if entry is not None:
        return Completion(text=entry["text"], backend_id=entry["backend_id"], cached=True)
    return cache.fill(key, lambda: generate(request, backend))
