"""Tests for the asyncio HTTP request parser (repro.cluster.aio).

Bad input at an HTTP edge must get a 4xx, never a dropped connection or a
traceback.  The parser is driven directly through a fed
:class:`asyncio.StreamReader` (including a Hypothesis fuzz over malformed
heads), and over a real socket against a :class:`ClusterWorker`.
"""

import asyncio
import logging
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterWorker
from repro.cluster.aio import HTTPRequest, RequestError, _read_request


def _parse(raw: bytes):
    """Parse ``raw`` (followed by EOF) the way a server connection does."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader, "test:0")

    return asyncio.run(_run())


def _head(content_length: str, body: bytes = b"") -> bytes:
    return (f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode("latin-1") \
        + body


def _is_plain_length(value: str) -> bool:
    value = value.strip()
    return value == "" or (value.isascii() and value.isdigit())


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "+5", "5_0", "1e3",
                                       "0x10", "5 5", "²"])
    def test_malformed_content_length_is_400(self, value):
        with pytest.raises(RequestError) as excinfo:
            _parse(_head(value, b"12345"))
        assert excinfo.value.status == 400

    def test_plain_content_length_reads_the_body(self):
        request = _parse(_head("5", b"12345"))
        assert isinstance(request, HTTPRequest)
        assert request.body == b"12345"

    def test_truncated_body_is_400(self):
        with pytest.raises(RequestError) as excinfo:
            _parse(_head("10", b"123"))
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(RequestError) as excinfo:
            _parse(_head(str(10 ** 12)))
        assert excinfo.value.status == 413


_LATIN1_LINE = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0xFF,
                           blacklist_characters="\r\n"),
    max_size=40)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(value=_LATIN1_LINE.filter(lambda v: not _is_plain_length(v)))
    def test_any_malformed_content_length_gets_400(self, value):
        with pytest.raises(RequestError) as excinfo:
            _parse(_head(value, b"{}"))
        assert excinfo.value.status == 400

    @settings(max_examples=300, deadline=None)
    @given(
        request_line=st.one_of(
            _LATIN1_LINE,
            st.builds("{} {} {}".format,
                      st.sampled_from(["GET", "POST", "PUT", ""]),
                      st.sampled_from(["/jobs", "/cache/batch", "", "/x y"]),
                      st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2",
                                       "http/1.1", ""]))),
        headers=st.lists(st.one_of(
            _LATIN1_LINE,
            st.builds("{}: {}".format, _LATIN1_LINE, _LATIN1_LINE),
            st.builds("Content-Length: {}".format, _LATIN1_LINE)),
            max_size=4),
        body=st.binary(max_size=64),
    )
    def test_malformed_heads_always_get_a_4xx(self, request_line, headers,
                                              body):
        raw = "\r\n".join([request_line, *headers]).encode("latin-1") \
            + b"\r\n\r\n" + body
        try:
            request = _parse(raw)
        except RequestError as error:
            assert 400 <= error.status < 500
        else:
            # Anything accepted parsed into a complete request.
            assert isinstance(request, HTTPRequest)
            assert len(request.body) == int(
                request.headers.get("content-length") or 0)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=256))
    def test_arbitrary_bytes_never_escape_as_other_errors(self, raw):
        try:
            request = _parse(raw)
        except RequestError as error:
            assert 400 <= error.status < 500
        else:
            assert request is None or isinstance(request, HTTPRequest)


def _exchange(url: str, raw: bytes) -> bytes:
    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as conn:
        conn.sendall(raw)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOverTheWire:
    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_worker_answers_bad_content_length_with_400(self, value,
                                                        caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ClusterWorker() as worker:
                reply = _exchange(worker.url, _head(value, b"{}"))
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in reply
        assert not [record for record in caplog.records
                    if "Unhandled exception" in record.getMessage()]
