"""The HTTP client of `llm.HTTPBackend`, from the standard library.

`KeepAliveSession.post` sends a JSON body and reads the whole response over
connections that stay open between requests, the HTTP/1.1 default (RFC 9112
§9.3). `http.client` only opens a connection: the TCP connect, a CONNECT
tunnel through an https proxy, and TLS with hostname checks. Each request is
then written in one `sendall`, and each response framed (RFC 9112 §§2–7) from
one buffered reader that the connection keeps while idle. `llm` imports this
module only when it builds a live backend, so a replay run never loads
`http.client` or `ssl`.
"""

from __future__ import annotations

import http.client
import json as json_module
import re
import ssl
import threading
from dataclasses import dataclass
from urllib.parse import urlsplit
from urllib.request import getproxies, proxy_bypass

# The limits on a response head, the values of http.client's own: at most
# MAX_HEADERS header lines of at most MAX_LINE bytes each.
MAX_HEADERS = 100
MAX_LINE = 65536

_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
# Characters refused in a request target (a space too), and in a header name
# or value (which may hold a tab): control characters, so that no caller's
# string can end a line early, and any character outside Latin-1, the head's
# encoding. `llm.HTTPBackend` checks its endpoint and key with these too.
# Each lists what it allows, which compiles far faster than a range to U+10FFFF.
BAD_TARGET = re.compile(r"[^\x21-\x7e\x80-\xff]")
BAD_FIELD = re.compile(r"[^\t\x20-\x7e\x80-\xff]")

# How a kept-alive connection that the server has closed fails before a
# status line. `_read_head` raises `http.client.RemoteDisconnected`, a
# ConnectionResetError, when the stream ends there.
_STALE = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class Response:
    """A response read to its end. `headers` maps lower-cased names to
    values; the values of a repeated name are joined with ", "."""

    status_code: int
    text: str
    headers: dict[str, str]

    def json(self):
        return json_module.loads(self.text)


class _Connection:
    """An open connection: its socket, the one buffered reader over it, the
    Host header and the prefix that its request targets take."""

    __slots__ = ("sock", "reader", "host", "prefix")

    def __init__(self, conn: http.client.HTTPConnection, host: str, prefix: str):
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        self.sock = conn.sock
        self.reader = self.sock.makefile("rb")
        self.host = host
        self.prefix = prefix

    def close(self):
        self.reader.close()
        self.sock.close()


class KeepAliveSession:
    """JSON POSTs over kept-alive HTTP/1.1 connections.

    Idle connections wait in a list per origin, under a lock. A request takes
    one or else opens one, and gives it back once the body is read, unless
    the response ends the connection. So there are never more connections
    than requests in flight at once. A server may close an idle connection
    at any time: a reused connection that is reset or ends, or whose send
    breaks the pipe, before a status line arrives is closed, and the request
    is sent once more on a new connection. That resend is not an attempt of
    the caller's. Any other failure, a framing error included, closes the
    connection and is raised.

    `http_proxy`, `https_proxy` and `no_proxy` are read when a connection
    opens. An http URL is sent to the proxy as an absolute URI, and an https
    URL goes through a CONNECT tunnel; credentials in a proxy URL are not
    sent. HTTPS verifies certificates against the system's trust store.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # (scheme, netloc) -> its idle connections
        self._idle: dict[tuple[str, str], list[_Connection]] = {}
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json=None, headers=None, timeout: float | None = None) -> Response:
        """POST `json` to `url` with the caller's `headers`, which must not
        repeat Host, Accept-Encoding or Content-Length."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {url!r}")
        origin = (parts.scheme, parts.netloc)
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = json_module.dumps(json, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json", **(headers or {})}
        with self._lock:
            idle = self._idle.get(origin)
            conn = idle.pop() if idle else None
        head = None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                head = _send(conn, conn.prefix + path, body, headers)
            except _STALE:
                pass  # closed by the server while idle
        if head is None:
            conn = self._connect(parts, timeout)
            head = _send(conn, conn.prefix + path, body, headers)
        status, fields, keep_alive = head
        try:
            data, keep_alive = _read_body(conn.reader, status, fields, keep_alive)
        except BaseException:
            conn.close()
            raise
        if keep_alive:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        else:
            conn.close()
        return Response(status, data.decode("utf-8", "replace"), fields)

    def _connect(self, parts, timeout) -> _Connection:
        """A new connection to the URL's origin, through the proxy that the
        environment names for its scheme unless `no_proxy` covers its host."""
        proxy = None if proxy_bypass(parts.hostname or "") else getproxies().get(parts.scheme)
        if proxy is not None:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}").netloc
            proxy = proxy.rpartition("@")[2]
        if parts.scheme == "http":
            host, prefix = (parts.netloc, "") if proxy is None else (proxy, f"http://{parts.netloc}")
            return _Connection(http.client.HTTPConnection(host, timeout=timeout),
                               parts.netloc, prefix)
        if self._tls is None:
            self._tls = ssl.create_default_context()
        conn = http.client.HTTPSConnection(proxy or parts.netloc, timeout=timeout,
                                           context=self._tls)
        if proxy is not None:
            conn.set_tunnel(parts.netloc)
        return _Connection(conn, parts.netloc, "")

    def close(self):
        """Close every idle connection. One in use when this is called is
        kept when its request gives it back."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _send(conn: _Connection, target: str, body: bytes, headers: dict):
    """Send one POST on `conn` in one write and read the head of its final
    response: (status, headers, whether the connection may stay open). The
    connection is closed if either fails."""
    try:
        if BAD_TARGET.search(target) or BAD_FIELD.search("".join([*headers, *headers.values()])):
            raise ValueError("a control or non-Latin-1 character in the target or a header")
        fields = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
        head = (f"POST {target} HTTP/1.1\r\nHost: {conn.host}\r\nAccept-Encoding: identity\r\n"
                f"Content-Length: {len(body)}\r\n{fields}\r\n")
        conn.sock.sendall(head.encode("latin-1") + body)
        return _read_head(conn.reader)
    except BaseException:
        conn.close()
        raise


def _read_head(reader):
    """The status line and headers of the final response, after any 1xx
    interim ones: (status, headers, whether the connection may stay open)."""
    while True:
        line = reader.readline(MAX_LINE + 1)
        if not line:
            raise http.client.RemoteDisconnected("connection closed before a status line")
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise http.client.BadStatusLine(repr(line[:100]))
        fields = _read_fields(reader)
        status = int(match[2])
        if status >= 200:
            break
    options = {option.strip().lower() for option in fields.get("connection", "").split(",")}
    return status, fields, "close" not in options and (match[1] != b"0" or "keep-alive" in options)


def _read_fields(reader) -> dict[str, str]:
    """Header or trailer lines up to the empty line that ends them (RFC 9112
    §5), names lower-cased and repeated names' values joined with ", "."""
    fields: dict[str, str] = {}
    name = None
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line.endswith(b"\n"):
            raise http.client.IncompleteRead(line)
        if line[0] in b" \t" and name is not None:  # obs-fold, RFC 9112 §5.2
            fields[name] += " " + line.strip().decode("latin-1")
            continue
        raw, colon, value = line.partition(b":")
        if not colon:
            raise http.client.HTTPException(f"malformed header line: {line[:100]!r}")
        name = raw.decode("latin-1").lower()
        value = value.strip().decode("latin-1")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")


def _read_body(reader, status: int, fields: dict, keep_alive: bool) -> tuple[bytes, bool]:
    """The body of a response with this status and these headers, framed by
    RFC 9112 §6.3, and whether the connection may still stay open: not when
    the body ran to the close."""
    if status in (204, 304):
        return b"", keep_alive
    coding = fields.get("transfer-encoding")
    if coding is not None:
        if coding.rpartition(",")[2].strip().lower() == "chunked":
            return _read_chunked(reader), keep_alive
        return reader.read(), False
    length = fields.get("content-length")
    if length is None:
        return reader.read(), False
    value, *others = {value.strip() for value in length.split(",")}
    if others or not value.isdecimal():
        raise http.client.HTTPException(f"bad or conflicting Content-Length: {length!r}")
    size = int(value)
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data, keep_alive


def _read_chunked(reader) -> bytes:
    """A chunked body (RFC 9112 §7.1): chunk extensions are ignored, and the
    trailer lines are read and dropped."""
    chunks = []
    while True:
        line = reader.readline(MAX_LINE + 1)
        match = _CHUNK_SIZE.fullmatch(line)
        if match is None:
            raise http.client.HTTPException(f"bad chunk-size line: {line[:100]!r}")
        size = int(match[1], 16)
        if size == 0:
            _read_fields(reader)
            return b"".join(chunks)
        chunk = reader.read(size)
        if len(chunk) < size:
            raise http.client.IncompleteRead(chunk, size - len(chunk))
        if reader.readline(2) not in (b"\r\n", b"\n"):
            raise http.client.HTTPException("chunk data not followed by a line end")
        chunks.append(chunk)
