"""Text-generation backends with a persistent completion cache.

Two backends share one contract, `complete` and `close`: a live
completions-style HTTP backend and a replay backend serving pre-recorded
fixtures, which makes every pipeline run a pure function of its inputs.
Completions are cached keyed by a digest of the full request, so interrupted
runs resume without new calls. The cache is one append-only log indexed in
memory (the log-structured hash table of Bitcask, Sheehy & Smith 2010), and
concurrent misses on one key share one backend call. Replay fixtures are
written through `jsonl.write_jsonl`, so a fixture file is whole or unchanged.
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
TEMPERATURE = 0.0  # every request is greedy; the key and the request body carry it

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
    stop_sequences: tuple[str, ...] = ()

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
                    "temperature": TEMPERATURE,
                    "stop_sequences": list(self.stop_sequences),
                },
                sort_keys=True,
                ensure_ascii=False,
            )
            key = self.__dict__["_key"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return key


def extraction_request(prompt: str, model_id: str) -> GenerationRequest:
    return GenerationRequest(model_id=model_id, prompt=prompt, max_tokens=EXTRACTION_MAX_TOKENS)


def qa_request(prompt: str, model_id: str) -> GenerationRequest:
    """QA requests stop at the first line break and carry no real token limit."""
    return GenerationRequest(model_id=model_id, prompt=prompt, stop_sequences=("\n",))


def request_key(request: GenerationRequest) -> str:
    """Content digest of every request field; equal requests share a key."""
    return request.key


@dataclass(frozen=True, slots=True)
class Completion:
    """A completion cut at its request's first stop sequence, and the backend
    that made it: the one value that the cache indexes and hands out."""

    text: str
    backend_id: str


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
    informational only.
    """

    backend_id = "replay"

    def __init__(self, fixtures: dict[str, str]):
        self._fixtures = dict(fixtures)

    @classmethod
    def from_file(cls, path) -> "ReplayBackend":
        """Of two fixture rows with one key, the later wins."""
        return cls({row["key"]: row["text"]
                    for _, _, row in read_rows([path], {"key": str, "text": str})})

    def complete(self, request: GenerationRequest) -> str:
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
    `transport.KeepAliveSession` bound to `endpoint`, which keeps connections
    open between calls until `close`. An endpoint that is not http(s), or
    that no request could carry, raises `ValueError` here, before any
    request, and so does a key that no header could carry. A `session` given
    is already bound to its endpoint; `endpoint` then only names the backend.
    """

    def __init__(self, endpoint: str, session=None, timeout: float = 120.0,
                 api_key: str | None = None):
        from . import transport  # imported only here, so a replay run never loads it

        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if transport.BAD_FIELD.search(api_key):  # never print the key
            raise ValueError(f"{API_KEY_ENV} holds a control character or a character "
                             "outside Latin-1, which no HTTP header can carry")
        self._owns_session = session is None
        if session is None:
            headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
            session = transport.KeepAliveSession(endpoint, headers, timeout)
        self._session = session
        self.backend_id = f"http:{endpoint}"

    def complete(self, request: GenerationRequest) -> str:
        max_tokens = QA_MAX_TOKENS_CAP if request.max_tokens is None else request.max_tokens
        body = {
            "model": request.model_id,
            "prompt": request.prompt,
            "max_tokens": max_tokens,
            "temperature": TEMPERATURE,
            "stop": list(request.stop_sequences) or None,
        }
        last_error = None
        for attempt in range(RETRY_ATTEMPTS):
            retry_after = None
            try:
                response = self._session.post(body)
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
    in seconds; None for another status, no header or an HTTP-date. Header
    names are lower-cased, as the transport reads them. Raises BackendError
    for a wait above RETRY_AFTER_MAX."""
    if response.status_code not in (429, 503):
        return None
    value = response.headers.get("retry-after", "").strip()
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
    logger.debug("raw response (%.3fs):\n%s", time.monotonic() - start, raw)
    return Completion(_truncate_at_stop(raw, request.stop_sequences), backend.backend_id)


class CompletionCache:
    """Completions keyed by request digest, kept in one append-only log,
    cache_dir/completions.jsonl, of {key, text, backend_id} lines and read
    into an in-memory index of `Completion`s at open. A hit hands out the
    indexed object itself.

    Crash contract:
    - `put` appends its entry in one write, under a lock, and indexes it.
      Each entry starts with its own newline, which ends any torn line a
      writer left, so every entry whose write completed is read back.
    - The log is never cut. A corrupt or mistyped line, such as a torn one
      (a put killed mid-write), is skipped with a warning; its request is
      generated again on the next miss. Of two lines with one key, the
      later wins.
    - The one-file-per-completion `objects/` directory of earlier versions
      is not read.

    Concurrent misses on one key make one backend call (`fill`). Several
    instances on one directory may all append; each sees the others' entries
    when reopened. `close` the cache, or use it in a `with` block.
    """

    def __init__(self, cache_dir):
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        self.path = Path(cache_dir) / "completions.jsonl"
        self._index: dict[str, Completion] = {}
        for line_no, row in read_log(self.path):
            if row_fault(row, CACHE_ENTRY_FIELDS) is None:
                self._index[row["key"]] = Completion(row["text"], row["backend_id"])
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

    def get(self, key: str) -> Completion | None:
        return self._index.get(key)

    def put(self, key: str, completion: Completion):
        line = json.dumps({"key": key, "text": completion.text,
                           "backend_id": completion.backend_id}, ensure_ascii=False)
        with self._lock:
            append_line(self._log, line)
            self._index[key] = completion
            self._flights.pop(key, None)  # later callers read the index

    def fill(self, key: str, compute) -> Completion:
        """The completion for `key`, from the index or else from `compute()`,
        which is then put. However many threads ask for one missing key at
        once, one of them calls `compute` and the others wait for its
        completion or its exception. A failure puts nothing, so the next
        call retries."""
        with self._lock:
            completion = self._index.get(key)
            if completion is not None:
                return completion
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = Future()
        if not leader:
            return flight.result()
        try:
            completion = compute()
            self.put(key, completion)
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
    return cache.get(key) or cache.fill(key, lambda: generate(request, backend))
