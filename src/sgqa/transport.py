"""The HTTP client of `llm.HTTPBackend`, from the standard library.

A `KeepAliveSession` is bound to one URL, its headers and its timeout, and
checks them once, when it is built. `KeepAliveSession.post` sends a JSON body
and reads the whole response over connections that stay open between
requests, the HTTP/1.1 default (RFC 9112 §9.3). `http.client` only opens a
connection: the TCP connect, a CONNECT tunnel through an https proxy, and TLS
with hostname checks. Each request is then written in one `sendall`, and each
response framed (RFC 9112 §§2–7) from one buffered reader that the connection
keeps while idle. `llm` imports this module only when it builds a live
backend, so a replay run never loads `http.client` or `ssl`.
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
# encoding. A session checks its URL with the first, once; `llm.HTTPBackend`
# checks its key with the second.
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
    """An open connection: its socket, the one buffered reader over it, and
    the start of each request head it sends, up to the Content-Length value."""

    __slots__ = ("sock", "reader", "start")

    def __init__(self, conn: http.client.HTTPConnection, start: bytes):
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        self.sock = conn.sock
        self.reader = self.sock.makefile("rb")
        self.start = start

    def close(self):
        self.reader.close()
        self.sock.close()


class KeepAliveSession:
    """JSON POSTs to one URL over kept-alive HTTP/1.1 connections.

    The URL, the header lines and the timeout are fixed when the session is
    built. A URL that is not http(s), whose port is not a number in 0-65535,
    or that holds a character `BAD_TARGET` matches, raises `ValueError`
    there, so no request checks it again. The caller's `headers` must match
    no `BAD_FIELD` character and must not name Host, Accept-Encoding or
    Content-Length; Content-Type is application/json unless they name it.

    Idle connections wait in one list, under a lock. A request takes one or
    else opens one, and gives it back once the body is read, unless the
    response ends the connection. So there are never more connections than
    requests in flight at once. A server may close an idle connection at any
    time: a reused connection that is reset or ends, or whose send breaks the
    pipe, before a status line arrives is closed, and the request is sent
    once more on a new connection. That resend is not an attempt of the
    caller's. Any other failure, a framing error included, closes the
    connection and is raised.

    `http_proxy`, `https_proxy` and `no_proxy` are read when a connection
    opens. An http URL is sent to the proxy as an absolute URI, and an https
    URL goes through a CONNECT tunnel; credentials in a proxy URL are not
    sent. HTTPS verifies certificates against the system's trust store.
    """

    def __init__(self, url: str, headers: dict[str, str], timeout: float | None):
        if BAD_TARGET.search(url):
            raise ValueError(f"endpoint {url!r} holds a space, a control character "
                             "or a character outside Latin-1")
        self._url = urlsplit(url)
        if self._url.scheme not in ("http", "https"):
            raise ValueError(f"endpoint {url!r} needs an http:// or https:// scheme")
        try:
            self._url.port  # a port that is not a number in 0-65535 raises
        except ValueError as exc:
            raise ValueError(f"endpoint {url!r}: {exc}") from None
        query = self._url.query
        self._path = (self._url.path or "/") + (f"?{query}" if query else "")
        fields = {"Content-Type": "application/json", **headers}
        self._fields = "".join([f"{name}: {value}\r\n" for name, value in fields.items()]
                               ).encode("latin-1")
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []
        self._tls: ssl.SSLContext | None = None

    def post(self, payload) -> Response:
        """POST `payload` as JSON and read the whole response."""
        body = json_module.dumps(payload, allow_nan=False).encode("utf-8")
        rest = b"%d\r\n%s\r\n%s" % (len(body), self._fields, body)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        head = None
        if conn is not None:
            try:
                head = _send(conn, conn.start + rest)
            except _STALE:
                pass  # closed by the server while idle
        if head is None:
            conn = self._connect()
            head = _send(conn, conn.start + rest)
        status, fields, keep_alive = head
        try:
            data, keep_alive = _read_body(conn.reader, status, fields, keep_alive)
        except BaseException:
            conn.close()
            raise
        if keep_alive:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return Response(status, data.decode("utf-8", "replace"), fields)

    def _connect(self) -> _Connection:
        """A new connection to the URL's origin, through the proxy that the
        environment names for its scheme unless `no_proxy` covers its host.
        The request line and Host header it sends are fixed here."""
        scheme, netloc = self._url.scheme, self._url.netloc
        proxy = None if proxy_bypass(self._url.hostname or "") else getproxies().get(scheme)
        if proxy is not None:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}").netloc
            proxy = proxy.rpartition("@")[2]
        if scheme == "http":
            host, prefix = (netloc, "") if proxy is None else (proxy, f"http://{netloc}")
            conn = http.client.HTTPConnection(host, timeout=self._timeout)
        else:
            if self._tls is None:
                self._tls = ssl.create_default_context()
            conn = http.client.HTTPSConnection(proxy or netloc, timeout=self._timeout,
                                               context=self._tls)
            prefix = ""
            if proxy is not None:
                conn.set_tunnel(netloc)
        start = (f"POST {prefix}{self._path} HTTP/1.1\r\nHost: {netloc}\r\n"
                 "Accept-Encoding: identity\r\nContent-Length: ")
        return _Connection(conn, start.encode("latin-1"))

    def close(self):
        """Close every idle connection. One in use when this is called is
        kept when its request gives it back."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _send(conn: _Connection, request: bytes):
    """Send one whole request on `conn` in one write and read the head of its
    final response: (status, headers, whether the connection may stay open).
    The connection is closed if either fails."""
    try:
        conn.sock.sendall(request)
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
