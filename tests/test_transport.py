"""Byte-level cases of the HTTP/1.1 response framer, `transport._read_head`
plus `transport._read_body`, each read from an in-memory stream."""

import http.client
import io

import pytest

from sgqa import transport


def read(raw: bytes):
    """(status, headers, body, whether the connection may stay open, the
    bytes left after the response) of the one response that `raw` starts."""
    reader = io.BytesIO(raw)
    status, fields, keep_alive = transport._read_head(reader)
    body, keep_alive = transport._read_body(reader, status, fields, keep_alive)
    return status, fields, body, keep_alive, reader.read()


def test_folded_header_lines_join_the_value_before_them():
    status, fields, body, keep_alive, rest = read(
        b"HTTP/1.1 200 OK\r\nX-Note: one\r\n  two\r\n\tthree\r\nContent-Length: 2\r\n\r\nokNEXT")
    assert fields == {"x-note": "one two three", "content-length": "2"}
    assert (status, body, keep_alive, rest) == (200, b"ok", True, b"NEXT")


@pytest.mark.parametrize("status", [204, 304])
def test_no_body_status_reads_no_body(status):
    """A 204 or 304 has no body, whatever its headers say (RFC 9112 §6.3
    rule 1), so the reader stays on the next response's first byte."""
    next_response = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
    raw = b"HTTP/1.1 %d X\r\nContent-Length: 5\r\n\r\n" % status + next_response
    assert read(raw)[2:] == (b"", True, next_response)


def test_non_chunked_transfer_coding_is_read_to_the_close():
    """A transfer coding other than chunked last is framed by the close
    (RFC 9112 §6.3 rule 4), and overrides Content-Length."""
    raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nall of it"
    assert read(raw)[2:] == (b"all of it", False, b"")


CHUNKED = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"


@pytest.mark.parametrize("raw,error,message", [
    (b"HTTP/1.1 200 OK\r\nContent-Le", http.client.IncompleteRead, "(10 bytes read)"),
    (b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n", http.client.HTTPException,
     "malformed header line: b'no colon here"),
    (CHUNKED + b"zz\r\nab\r\n0\r\n\r\n", http.client.HTTPException,
     "bad chunk-size line: b'zz"),
    (CHUNKED + b"5\r\nabc", http.client.IncompleteRead, "3 bytes read, 2 more expected"),
    (CHUNKED + b"3\r\nabcde\r\n0\r\n\r\n", http.client.HTTPException,
     "chunk data not followed by a line end"),
], ids=["end of stream inside the head", "header line without a colon", "bad chunk-size line",
        "short chunk", "chunk data without a line end"])
def test_malformed_response_is_refused(raw, error, message):
    with pytest.raises(http.client.HTTPException) as excinfo:
        read(raw)
    assert type(excinfo.value) is error
    assert message in str(excinfo.value)
