"""Text-generation backends with a persistent completion cache.

Two backends share one contract: a live completions-style HTTP backend and a
replay backend serving pre-recorded fixtures, which makes every pipeline run
a pure function of its inputs. Completions are cached on disk keyed by a
digest of the full request, so interrupted runs resume without new calls.
Cache entries and replay fixtures are written through `jsonl.write_atomic`,
so each file is whole or unchanged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .jsonl import read_jsonl, write_atomic, write_jsonl

logger = logging.getLogger(__name__)

# Generation budgets: extraction runs are capped at 300 tokens; QA runs are
# effectively unbounded (single-line stop) but real APIs need a number.
EXTRACTION_MAX_TOKENS = 300
QA_MAX_TOKENS_CAP = 512

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 1.0

API_KEY_ENV = "SGQA_API_KEY"


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
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "stop_sequences": list(request.stop_sequences),
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    instant = True  # replayed completions report zero latency

    def __init__(self, fixtures: dict[str, str]):
        self._fixtures = dict(fixtures)
        self.calls = 0

    @classmethod
    def from_file(cls, path) -> "ReplayBackend":
        return cls({entry["key"]: entry["text"] for _, entry in read_jsonl(path)})

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
    choices[0].text (falling back to a top-level "text"). Retries up to
    RETRY_ATTEMPTS times with exponential backoff on network errors, 429 and
    5xx responses; other 4xx responses and a 200 body without the text fail
    at once.
    """

    def __init__(self, endpoint: str, session=None, timeout: float = 120.0,
                 api_key: str | None = None):
        if session is None:
            import requests

            session = requests.Session()
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
            try:
                response = self._session.post(
                    self._endpoint, json=body, headers=headers, timeout=self._timeout
                )
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(
                        f"HTTP {response.status_code}: {response.text[:200]}"
                    )
                elif response.status_code >= 400:
                    raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                else:
                    data = response.json()
                    try:
                        return data["choices"][0]["text"] if "choices" in data else data["text"]
                    except (KeyError, IndexError, TypeError):
                        # a well-formed reply that lacks the field will not gain it on retry
                        raise BackendError(
                            "HTTP 200 body has neither choices[0].text nor text: "
                            f"{response.text[:200]}"
                        ) from None
            except BackendError:
                raise
            except Exception as exc:  # network / timeout / bad JSON
                last_error = BackendError(f"transport error: {exc}")
            if attempt < RETRY_ATTEMPTS - 1:
                delay = RETRY_BASE_DELAY * (2**attempt)
                logger.warning("backend attempt %d failed (%s); retrying in %.1fs",
                               attempt + 1, last_error, delay)
                time.sleep(delay)
        raise last_error  # type: ignore[misc]


def generate(request: GenerationRequest, backend) -> Completion:
    """One backend call; the completion is truncated at the first stop sequence."""
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("raw request (key=%s):\n%s", request_key(request)[:12], request.prompt)
    start = time.monotonic()
    raw = backend.complete(request)
    latency = 0.0 if getattr(backend, "instant", False) else time.monotonic() - start
    logger.debug("raw response (%.3fs):\n%s", latency, raw)
    text = _truncate_at_stop(raw, request.stop_sequences)
    return Completion(text=text, backend_id=backend.backend_id, cached=False, latency=latency)


class CompletionCache:
    """One JSON file per completion under cache_dir/objects; writes are
    temp-then-rename so concurrent workers are safe."""

    def __init__(self, cache_dir):
        self.root = Path(cache_dir)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, key: str) -> Path:
        return self.objects / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if "text" not in entry:
                raise ValueError("no text field")
            return entry
        except (ValueError, OSError) as exc:
            logger.warning("corrupt cache entry %s (%s); regenerating", path.name, exc)
            return None

    def put(self, key: str, text: str, backend_id: str):
        entry = {
            "key": key,
            "text": text,
            "backend_id": backend_id,
            "created_at": time.time(),
        }
        write_atomic(self._entry_path(key), [json.dumps(entry, ensure_ascii=False)])


def cached_generate(request: GenerationRequest, backend, cache: CompletionCache) -> Completion:
    """Serve from cache when possible; on a miss, generate and write before
    returning. Duplicate in-flight misses may both call the backend (values
    are identical at temperature 0), last write wins."""
    key = request_key(request)
    entry = cache.get(key)
    if entry is not None:
        return Completion(
            text=entry["text"],
            backend_id=entry.get("backend_id", backend.backend_id),
            cached=True,
            latency=0.0,
        )
    completion = generate(request, backend)
    cache.put(key, completion.text, completion.backend_id)
    return completion
