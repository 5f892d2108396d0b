"""The JSONL file format: the one checked reader and the two write policies.

Every JSONL input is read by `read_rows`, which names the file and line of a
malformed row; the completion cache skips a row with a `row_fault` instead.

Every output file sgqa writes goes to a temp file beside its target and is
renamed over it, so the target holds its old bytes or all of the new ones,
even if the process is killed mid-write. Such a kill leaves the temp file
behind; `remove_dead_temps` deletes it when a later stage starts.

The one exception is an append-only log, which is appended to, never renamed
into place: the completion cache's `completions.jsonl`. Each entry starts with
its own newline and is appended in one unbuffered write; nothing is read
first. A kill leaves at most a torn line, which the next entry's newline
ends, whoever appends it and whenever. The log is never cut: `read_log`
skips a torn line like any other corrupt one, and blank lines.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from pathlib import Path

logger = logging.getLogger(__name__)

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", list: "an array",
               dict: "an object"}
_TEMP_NAME = re.compile(r".+\.(\d+)-\d+\.tmp")  # a `write_atomic` temp file, by writer pid


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


def remove_dead_temps(*directories) -> None:
    """Delete each `write_atomic` temp file in `directories` whose writing
    process no longer exists. A missing directory holds none."""
    for directory in directories:
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            continue
        for name in names:
            match = _TEMP_NAME.fullmatch(name)
            if match and not _process_exists(int(match[1])):
                try:
                    os.unlink(os.path.join(directory, name))
                except FileNotFoundError:  # another stage removed it first
                    pass


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):  # another user's process; too large for a pid
        pass
    return True


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


def row_fault(row, fields) -> str | None:
    """What is wrong with the first of `fields` (name -> str, int, bool, list
    or dict) that the parsed `row` lacks or holds with another JSON type; None
    if there is no such field. `true` and `1.0` are not integers."""
    for name, kind in fields.items():
        if type(row) is not dict or name not in row:
            return f"missing field {name!r}"
        if type(row[name]) is not kind:
            return f"field {name!r} must be {_TYPE_NAMES[kind]}, got {json.dumps(row[name])}"
    return None


def read_rows(paths, fields, what=None, key=None):
    """Yield (path, line number, row) for each row of the JSONL files. A row
    with a `row_fault`, or whose `key(row)` an earlier row of any of the files
    has, is rejected naming its file and line; `what` names the key in that
    message. With no `key`, repeated keys are not checked."""
    first_at = {}
    for path in paths:
        for line_no, row in read_jsonl(path):
            error = row_fault(row, fields)
            if error is not None:
                raise ValueError(f"{path}:{line_no}: {error}")
            if key is not None:
                where = f"{path}:{line_no}"
                first = first_at.setdefault(key(row), where)
                if first is not where:  # an earlier row has this key
                    raise ValueError(f"{where}: duplicate {what} {key(row)!r} (first at {first})")
            yield path, line_no, row


def read_log(path):
    """Yield (line number, row) for each nonblank line of the append-only log
    at `path`; a missing file has none. A line that is not JSON, such as a
    torn last line, is skipped with a warning."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
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
    """Append `text` to a log from `open_log` as one entry, in one write: a
    newline, the text and a newline."""
    data = ("\n" + text + "\n").encode("utf-8")
    if log.write(data) != len(data):
        raise OSError(f"{log.name}: short write to an append-only log")
