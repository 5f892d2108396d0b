"""The HTTP client of `llm.HTTPBackend`, from the standard library.

`KeepAliveSession.post` sends a JSON body and reads the whole response over
connections that stay open between requests, the HTTP/1.1 default (RFC 9112
§9.3). `llm` imports this module only when it builds a live backend, so a
replay run never loads `http.client` or `ssl`.
"""

from __future__ import annotations

import http.client
import json as json_module
import ssl
import threading
from dataclasses import dataclass
from email.message import Message
from urllib.parse import urlsplit
from urllib.request import getproxies, proxy_bypass

# How a kept-alive connection that the server has closed fails before a
# status line. `http.client.RemoteDisconnected` is a ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class Response:
    """A response read to its end. `headers.get` ignores the case of a name."""

    status_code: int
    text: str
    headers: Message

    def json(self):
        return json_module.loads(self.text)


class KeepAliveSession:
    """JSON POSTs over kept-alive HTTP/1.1 connections.

    Idle connections wait in a list per origin, under a lock. A request takes
    one or else opens one, and gives it back once the body is read, unless
    the response says the connection will close. So there are never more
    connections than requests in flight at once. A server may close an idle
    connection at any time: a reused connection that is reset, or whose
    send breaks the pipe, before a status line arrives is closed, and the
    request is sent once more on a new connection. That resend is not an
    attempt of the caller's. Any other failure is raised.

    `http_proxy`, `https_proxy` and `no_proxy` are read when a connection
    opens. An http URL is sent to the proxy as an absolute URI, and an https
    URL goes through a CONNECT tunnel; credentials in a proxy URL are not
    sent. HTTPS verifies certificates against the system's trust store.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # (scheme, netloc) -> [(connection, request-target prefix)]
        self._idle: dict[tuple[str, str], list[tuple[http.client.HTTPConnection, str]]] = {}
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json=None, headers=None, timeout: float | None = None) -> Response:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {url!r}")
        origin = (parts.scheme, parts.netloc)
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = json_module.dumps(json, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json", **(headers or {})}
        with self._lock:
            idle = self._idle.get(origin)
            conn, prefix = idle.pop() if idle else (None, "")
        response = None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                response = _send(conn, prefix + path, body, headers)
            except _STALE:
                pass  # closed by the server while idle
        if response is None:
            conn, prefix = self._connect(parts, timeout)
            response = _send(conn, prefix + path, body, headers)
        try:
            text = response.read().decode("utf-8", "replace")
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(origin, []).append((conn, prefix))
        return Response(response.status, text, response.msg)

    def _connect(self, parts, timeout) -> tuple[http.client.HTTPConnection, str]:
        """A new connection to the URL's origin, through the proxy that the
        environment names for its scheme unless `no_proxy` covers its host,
        and the prefix that its request targets take."""
        proxy = None if proxy_bypass(parts.hostname or "") else getproxies().get(parts.scheme)
        if proxy is not None:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}").netloc
            proxy = proxy.rpartition("@")[2]
        if parts.scheme == "http":
            if proxy is None:
                return http.client.HTTPConnection(parts.netloc, timeout=timeout), ""
            return http.client.HTTPConnection(proxy, timeout=timeout), f"http://{parts.netloc}"
        if self._tls is None:
            self._tls = ssl.create_default_context()
        if proxy is None:
            return http.client.HTTPSConnection(parts.netloc, timeout=timeout, context=self._tls), ""
        conn = http.client.HTTPSConnection(proxy, timeout=timeout, context=self._tls)
        conn.set_tunnel(parts.netloc)
        return conn, ""

    def close(self):
        """Close every idle connection. One in use when this is called is
        kept when its request gives it back."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for entries in idle.values():
            for conn, _ in entries:
                conn.close()


def _send(conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict):
    """Send one POST on `conn` and read its status line and headers; the
    connection is closed if either fails."""
    try:
        conn.request("POST", target, body, headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise
