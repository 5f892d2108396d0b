"""The JSONL file format and the two write policies.

Every output file sgqa writes goes to a temp file beside its target and is
renamed over it, so the target holds its old bytes or all of the new ones,
even if the process is killed mid-write.

The one exception is an append-only log, which is appended to, never renamed
into place: the completion cache's `completions.jsonl`. Each line is appended
in one unbuffered write, so a kill leaves at most a torn last line, one
without its newline, and `read_log` drops that line and cuts it off the file.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path

logger = logging.getLogger(__name__)


def write_atomic(path, chunks) -> None:
    """Write the text chunks to `path` whole or not at all. The temp name is
    unique per process and thread, and `open` gives it the usual permissions."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_jsonl(path, rows) -> None:
    """Write each row as one line of compact JSON, whole or not at all."""
    write_atomic(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def read_jsonl(path):
    """Yield (line number, row) for each nonblank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    yield line_no, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{line_no}: malformed JSON: {exc}") from exc


def read_log(path):
    """Yield (line number, row) for each complete line of the append-only log
    at `path`; a missing file has none. A line that is not JSON is skipped
    with a warning. A torn last line is dropped with a warning and the file
    is truncated to the last newline, so the next append starts a new line."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        complete = 0  # bytes up to and including the last newline
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                logger.warning("%s:%d: torn last line dropped", path, line_no)
                os.truncate(path, complete)
                return
            complete += len(line)
            try:
                row = json.loads(line)
            except ValueError as exc:  # malformed JSON or UTF-8
                logger.warning("%s:%d: corrupt line skipped (%s)", path, line_no, exc)
                continue
            yield line_no, row


def open_log(path):
    """Open the append-only log at `path` for `append_line`, creating it."""
    return open(path, "ab", buffering=0)


def append_line(log, text: str) -> None:
    """Append `text` and a newline to a log from `open_log` in one write."""
    data = (text + "\n").encode("utf-8")
    if log.write(data) != len(data):
        raise OSError(f"{log.name}: short write to an append-only log")
