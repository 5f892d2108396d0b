"""A model-based test of the completion log, in the manner of ShardStore
(Bornholt et al., "Using Lightweight Formal Methods to Validate a Key-Value
Storage Node in Amazon S3", SOSP 2021): random sequences of cache operations,
other writers that die mid-line and corrupted lines, each step checked
against a model of what the log holds."""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from sgqa.llm import Completion, CompletionCache

KEYS = ("k0", "k1")  # few, so that puts often meet on a key
CACHE = st.integers(0, 1)  # which open cache, modulo how many are open


class BackendDown(RuntimeError):
    pass


def entry(text):
    return None if text is None else Completion(text, "replay")


class CompletionLog(RuleBasedStateMachine):
    """The model is the (key, text) of every put whose line was written whole
    and not corrupted since, in log order; a reopened cache serves the last
    one per key. Each open cache is paired with what it has seen: the model
    when it opened, and its own puts. One cache is open from the start, and
    at most two are open at once."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.log = self.dir / "completions.jsonl"
        self.entries = []
        self.caches = []  # [(cache, seen)]
        self.puts = 0

    def teardown(self):
        for cache, _ in self.caches:
            cache.close()
        shutil.rmtree(self.dir)

    def model(self):
        return dict(self.entries)

    def log_size(self):
        return self.log.stat().st_size if self.log.exists() else 0

    def _open(self):
        cache, model = CompletionCache(self.dir), self.model()
        self.caches.append((cache, model))
        for key in KEYS:  # every whole, uncorrupted put is served
            assert cache.get(key) == entry(model.get(key))

    def _close(self, i):
        cache, _ = self.caches.pop(i % len(self.caches))
        cache.close()

    @initialize()
    def open_first_cache(self):
        self._open()

    @precondition(lambda self: len(self.caches) < 2)
    @rule()
    def open_cache(self):
        self._open()

    @precondition(lambda self: len(self.caches) == 2)
    @rule(i=CACHE)
    def close_cache(self, i):
        self._close(i)

    @precondition(lambda self: self.caches)
    @rule(i=CACHE)
    def reopen(self, i):
        self._close(i)
        self._open()

    def _fill(self, i, key, succeeds):
        cache, seen = self.caches[i % len(self.caches)]
        present, size, calls = key in seen, self.log_size(), []

        def compute():
            calls.append(key)
            if not succeeds:
                raise BackendDown(key)
            self.puts += 1
            return Completion(text=f"v{self.puts}", backend_id="replay")

        try:
            completion = cache.fill(key, compute)
        except BackendDown:
            assert self.log_size() == size  # a failing fill puts nothing
        else:
            if present:
                assert completion is cache.get(key) and completion.text == seen[key]
            else:
                seen[key] = completion.text
                self.entries.append((key, completion.text))
        assert calls == ([] if present else [key])

    @precondition(lambda self: self.caches)
    @rule(i=CACHE, key=st.sampled_from(KEYS))
    def fill(self, i, key):
        self._fill(i, key, True)

    @precondition(lambda self: self.caches)
    @rule(i=CACHE, key=st.sampled_from(KEYS))
    def fill_fails(self, i, key):
        self._fill(i, key, False)

    @rule(key=st.sampled_from(KEYS), text=st.text("abc", max_size=3),
          cut=st.integers(0, 100), lead=st.booleans())
    def writer_dies_mid_line(self, key, text, cut, lead):
        """Another writer appends an entry's line up to, at most, just before
        its closing brace, so what it leaves is never a valid entry."""
        line = json.dumps({"key": key, "text": text, "backend_id": "replay"})
        with open(self.log, "ab") as other:
            other.write((("\n" if lead else "") + line[:cut % (len(line) - 1) + 1]).encode())

    @rule(data=st.data())
    def corrupt_middle_line(self, data):
        """Overwrite the first byte of a complete, nonblank line that is not
        the log's last line, in place."""
        byte = data.draw(st.sampled_from([b"#", b"\xff"]))
        raw = self.log.read_bytes() if self.log.exists() else b""
        complete, offset, middle = raw.split(b"\n")[:-1], 0, []
        if raw.endswith(b"\n"):
            complete.pop()  # the log's last line
        for line in complete:
            if line:
                middle.append((offset, line))
            offset += len(line) + 1
        if not middle:
            return
        offset, line = data.draw(st.sampled_from(middle))
        with open(self.log, "r+b") as fh:
            fh.seek(offset)
            fh.write(byte)
        try:
            row = json.loads(line)
        except ValueError:  # already corrupt, or a dead writer's line
            return
        self.entries.remove((row["key"], row["text"]))

    @invariant()
    def each_cache_serves_what_it_has_seen(self):
        for cache, seen in self.caches:
            for key in KEYS:
                assert cache.get(key) == entry(seen.get(key))


TestCompletionLog = CompletionLog.TestCase
# About 1 s; a log whose entries lack their leading newline fails within it.
TestCompletionLog.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
