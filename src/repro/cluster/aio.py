"""Minimal asyncio HTTP/1.1 plumbing for the cluster (stdlib only).

The single-box service spends a thread per connection; the cluster's front
door replaces that with one event loop per node on
:func:`asyncio.start_server`.  This module is the shared plumbing both node
kinds use:

* :class:`AsyncHTTPServer` -- accepts connections on its own event loop in
  a background thread (so nodes embed in tests and the CLI exactly like
  :class:`~repro.serve.service.SimulationService` does), parses requests,
  and hands ``(request, responder)`` pairs to an async handler.  Keep-alive
  connections serve sequential requests; slow or idle peers are timed out
  instead of pinning resources.
* :class:`HTTPResponder` -- plain ``Content-Length`` JSON responses, plus
  **chunked** streaming (``start_stream``/``write_chunk``/``finish``) for
  NDJSON result streams and ``text/event-stream`` SSE -- the transfer
  encodings that let ``/explore`` deliver results before a sweep finishes.
* :func:`fetch` -- a small one-request async client (the coordinator's
  shard-facing side): connect, send, parse, close.  No pooling; shard
  fan-out opens a handful of sockets per batch, which localhost handles
  comfortably, and connection-per-request makes dead-worker detection
  immediate.

Nothing here knows about jobs or shards; it is transport only.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.obs.trace import get_tracer

__all__ = ["AsyncHTTPServer", "HTTPReply", "HTTPRequest", "HTTPResponder",
           "RequestError", "fetch", "fetch_json"]

#: Largest request body a node accepts (mirrors the serve limit).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Largest request head (request line + headers).
_MAX_HEAD_BYTES = 64 * 1024
#: How long a keep-alive connection may idle between requests.
_KEEPALIVE_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class RequestError(Exception):
    """A malformed or oversized request (maps to 400/413)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str]  # lower-cased names
    body: bytes
    client: str  # peer address, "ip:port"

    def json(self) -> Dict[str, object]:
        if not self.body:
            raise RequestError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, f"bad JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    def wants(self, content_type: str) -> bool:
        """True when the Accept header asks for ``content_type``."""
        return content_type in self.headers.get("accept", "")


@dataclass
class HTTPReply:
    """One parsed response (the client side)."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, object]:
        return json.loads(self.body.decode("utf-8"))


class HTTPResponder:
    """Writes exactly one response -- fixed-length or chunked -- per request."""

    def __init__(self, writer: asyncio.StreamWriter, server_tag: str) -> None:
        self._writer = writer
        self._server_tag = server_tag
        self.responded = False
        self.streaming = False
        self.status: Optional[int] = None
        self.close_after = False

    def _head(self, status: int, headers: Dict[str, str]) -> bytes:
        reason = _REASONS.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Server: {self._server_tag}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def send(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        if self.responded:
            raise RuntimeError("response already sent")
        self.responded = True
        self.status = status
        head = {"Content-Type": content_type,
                "Content-Length": str(len(body))}
        head.update(headers or {})
        self._writer.write(self._head(status, head) + body)
        await self._writer.drain()

    async def send_json(self, status: int, payload: Dict[str, object],
                        headers: Optional[Dict[str, str]] = None) -> None:
        await self.send(status, json.dumps(payload).encode("utf-8"),
                        "application/json", headers)

    async def send_text(self, status: int, text: str,
                        content_type: str = "text/plain; version=0.0.4") -> None:
        # The default content type is the Prometheus exposition format tag.
        await self.send(status, text.encode("utf-8"), content_type)

    # -- chunked streaming ----------------------------------------------------

    async def start_stream(self, content_type: str,
                           headers: Optional[Dict[str, str]] = None) -> None:
        """Begin a chunked response (NDJSON or SSE); write with
        :meth:`write_chunk`, end with :meth:`finish_stream`."""
        if self.responded:
            raise RuntimeError("response already sent")
        self.responded = True
        self.streaming = True
        self.status = 200
        head = {"Content-Type": content_type,
                "Transfer-Encoding": "chunked",
                "Cache-Control": "no-store"}
        head.update(headers or {})
        self._writer.write(self._head(200, head))
        await self._writer.drain()

    async def write_chunk(self, data: bytes) -> None:
        if not data:
            return  # a zero-size chunk would terminate the stream
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1") + data
                           + b"\r\n")
        await self._writer.drain()

    async def finish_stream(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
        self.streaming = False

    # -- SSE convenience ------------------------------------------------------

    async def write_event(self, event: str, data: Dict[str, object]) -> None:
        """One server-sent event carrying a JSON payload."""
        payload = json.dumps(data)
        await self.write_chunk(
            f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))


async def _read_request(reader: asyncio.StreamReader,
                        client: str) -> Optional[HTTPRequest]:
    """Parse one request; ``None`` on clean EOF before a request line."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise RequestError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise RequestError(413, "request head too large") from None
    if len(head) > _MAX_HEAD_BYTES:
        raise RequestError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise RequestError(400, f"bad request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise RequestError(400, f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    # int() alone would also take "+5", "5_0" and "-5" (and raise
    # ValueError on "abc"): accept plain ASCII digits only.
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise RequestError(400, f"bad Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise RequestError(413,
                           f"request body too large ({length} bytes, "
                           f"limit {MAX_BODY_BYTES})")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise RequestError(400, "truncated request body") from None
    path = target.split("?", 1)[0]
    return HTTPRequest(method=method, path=path, headers=headers, body=body,
                       client=client)


Handler = Callable[[HTTPRequest, HTTPResponder], Awaitable[None]]


class AsyncHTTPServer:
    """An asyncio HTTP server running on its own loop in a daemon thread.

    ``handler(request, responder)`` must send exactly one response (fixed or
    streamed).  Handler exceptions map to 500; :class:`RequestError` to its
    status.  ``start()`` binds and returns the URL; ``stop()`` stops
    accepting, lets in-flight handlers finish (bounded), then tears the
    loop down.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, server_tag: str = "loom-cluster") -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.server_tag = server_tag
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._stopping = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection loop ------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or ("?", 0)
        client = f"{peer[0]}:{peer[1]}"
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._stopping:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader, client),
                        timeout=_KEEPALIVE_TIMEOUT_S)
                except (asyncio.TimeoutError, ConnectionError):
                    break
                except RequestError as error:
                    responder = HTTPResponder(writer, self.server_tag)
                    with _swallow_connection_errors():
                        await responder.send_json(
                            error.status, {"error": error.message},
                            headers={"Connection": "close"})
                    break
                if request is None:
                    break
                responder = HTTPResponder(writer, self.server_tag)
                try:
                    await self.handler(request, responder)
                except RequestError as error:
                    await self._best_effort_error(responder, error.status,
                                                  error.message)
                except ConnectionError:
                    break
                except Exception as error:
                    await self._best_effort_error(
                        responder, 500, f"{type(error).__name__}: {error}")
                if not responder.responded:
                    await self._best_effort_error(responder, 500,
                                                  "handler sent no response")
                if responder.streaming or responder.close_after or \
                        request.headers.get("connection", "") == "close":
                    break
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _best_effort_error(responder: HTTPResponder, status: int,
                                 message: str) -> None:
        with _swallow_connection_errors():
            if responder.streaming:
                # Mid-stream failure: terminate the stream with an error
                # event so the client sees a clean end, not a hung socket.
                await responder.write_event("error", {"error": message})
                await responder.finish_stream()
                responder.close_after = True
            elif not responder.responded:
                await responder.send_json(status, {"error": message})

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> str:
        """Bind on a fresh event loop in a daemon thread; returns the URL."""
        if self.loop is not None:
            raise RuntimeError("server already started")
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list = []

        async def _bind() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._serve_connection, host=self.host, port=self.port)
                self.port = self._server.sockets[0].getsockname()[1]
            except OSError as error:
                failure.append(error)
            finally:
                started.set()

        def _run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.create_task(_bind())
            self.loop.run_forever()
            # Drain callbacks scheduled during shutdown, then close.
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name=self.server_tag)
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self.stop()
            raise failure[0]
        return self.url

    def run_coroutine(self, coroutine) -> "asyncio.Future":
        """Submit a coroutine to the server's loop from any thread."""
        if self.loop is None:
            raise RuntimeError("server is not running")
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop)

    def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting, drain in-flight handlers, stop the loop."""
        if self.loop is None:
            return
        self._stopping = True

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            pending = {task for task in self._connections
                       if task is not asyncio.current_task()}
            if pending:
                await asyncio.wait(pending, timeout=drain_timeout_s)
                for task in pending:
                    task.cancel()

        try:
            future = asyncio.run_coroutine_threadsafe(_shutdown(), self.loop)
            future.result(timeout=drain_timeout_s + 5.0)
        except Exception:
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.loop = None
        self._server = None
        self._thread = None


class _swallow_connection_errors:
    """``with`` block that ignores peer-went-away errors while responding."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, OSError, RuntimeError))


# -- the coordinator's shard-facing client -------------------------------------


def _split_url(url: str) -> Tuple[str, int, str]:
    """``http://host:port[/base]`` -> (host, port, base_path)."""
    if not url.startswith("http://"):
        raise ValueError(f"only http:// URLs are supported, got {url!r}")
    rest = url[len("http://"):]
    host_port, slash, base = rest.partition("/")
    host, colon, port = host_port.partition(":")
    if not colon:
        port = "80"
    return host, int(port), ("/" + base if slash else "").rstrip("/")


async def fetch(url: str, method: str = "GET", path: str = "/",
                payload: Optional[Dict[str, object]] = None,
                timeout_s: float = 600.0,
                headers: Optional[Dict[str, str]] = None,
                body: Optional[bytes] = None) -> HTTPReply:
    """One HTTP request against ``url``; connection-per-request.

    The request body is ``payload`` encoded as JSON, or ``body`` when the
    caller already holds the encoded JSON bytes.  Raises ``ConnectionError``
    when the peer is unreachable or hangs up mid-response and
    ``asyncio.TimeoutError`` on deadline -- the two signals the
    coordinator's failover path treats as "this shard is down".
    """
    if payload is not None and body is not None:
        raise ValueError("pass either payload or body, not both")
    host, port, base = _split_url(url)
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=min(timeout_s, 10.0))
    try:
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = {
            "Host": f"{host}:{port}",
            "Connection": "close",
            "Content-Length": str(len(body or b"")),
        }
        if body is not None:
            head["Content-Type"] = "application/json"
        head.update(headers or {})
        # Carry the active trace across the hop (coordinator -> worker,
        # peer-cache lookups) unless the caller pinned its own header.
        get_tracer().inject_headers(head)
        lines = [f"{method} {base + path} HTTP/1.1"]
        lines.extend(f"{name}: {value}" for name, value in head.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + (body or b""))
        await writer.drain()

        raw_head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=timeout_s)
        status_line, *header_lines = raw_head.decode("latin-1").split("\r\n")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"bad status line from {url}: "
                                  f"{status_line!r}")
        status = int(parts[1])
        reply_headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                reply_headers[name.strip().lower()] = value.strip()
        if "content-length" in reply_headers:
            length = int(reply_headers["content-length"])
            reply_body = await asyncio.wait_for(reader.readexactly(length),
                                                timeout=timeout_s)
        else:
            # Connection: close responses without a length: read to EOF.
            reply_body = await asyncio.wait_for(reader.read(),
                                                timeout=timeout_s)
        return HTTPReply(status=status, headers=reply_headers,
                         body=reply_body)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError(f"{url} hung up mid-response") from error
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def fetch_json(url: str, method: str = "GET", path: str = "/",
                     payload: Optional[Dict[str, object]] = None,
                     timeout_s: float = 600.0,
                     headers: Optional[Dict[str, str]] = None
                     ) -> Dict[str, object]:
    """:func:`fetch` + JSON decode; non-2xx raises ``RequestError``."""
    reply = await fetch(url, method=method, path=path, payload=payload,
                        timeout_s=timeout_s, headers=headers)
    if not 200 <= reply.status < 300:
        try:
            message = reply.json().get("error", reply.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            message = f"HTTP {reply.status}"
        raise RequestError(reply.status, str(message))
    return reply.json()
