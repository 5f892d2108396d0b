"""The JSONL file format and the whole-or-nothing write policy.

Every file sgqa writes goes to a temp file beside its target and is renamed
over it, so the target holds its old bytes or all of the new ones, even if the
process is killed mid-write.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path


def write_atomic(path, chunks) -> None:
    """Write the text chunks to `path` whole or not at all. The temp name is
    unique per process and thread, and `open` gives it the usual permissions."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
