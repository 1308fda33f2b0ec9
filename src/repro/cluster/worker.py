"""Cluster worker: one shard's asyncio service around a warm ServiceCore.

A worker is the cluster's unit of capacity: it owns one
:class:`~repro.serve.core.ServiceCore` -- and through it one warm
:class:`~repro.sim.jobs.JobExecutor` and (typically) one private
:class:`~repro.serve.store.SQLiteResultStore` -- and answers the shard-facing
subset of the serve API over an :class:`~repro.cluster.aio.AsyncHTTPServer`:

========  =============  ====================================================
method    path           behaviour
========  =============  ====================================================
POST      /jobs          resolve a point batch (same wire format as serve)
GET       /jobs/<key>    look a finished result up by content key
POST      /cache/batch   **local-tier** lookup of ``{"keys": [...]}``;
                         answers the hits only, as a batch of keyed codec
                         frames (the peer-cache wire: never recurses into
                         the peer tier)
PUT       /cache/batch   store a peer's write-through replicas, a batch of
                         keyed codec frames, locally (400 if any frame
                         does not decode)
POST      /ring          accept ring membership from the coordinator and
                         activate the peer cache tier
GET       /healthz       liveness probe (the coordinator's health checks)
GET       /stats         core / executor / cache / store counters
GET       /metrics       Prometheus text format
POST      /shutdown      graceful stop (finishes in-flight work first)
========  =============  ====================================================

The event loop only parses and routes; executions run on a small thread
pool (``asyncio.to_thread``-style) because a simulation batch is seconds of
blocking NumPy work, and the core's locks already serialise what must be
serialised.  Request coalescing, bounded-admission 429 backpressure and the
warm-store fast path all come from the shared core -- a shard answers
bit-identically to the single-box ``loom-repro serve``.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.aio import (
    AsyncHTTPServer,
    HTTPRequest,
    HTTPResponder,
    RequestError,
)
from repro.cluster.peercache import PeerCacheBackend
from repro.obs import MetricsRegistry, get_logger, get_tracer
from repro.serve.core import Backpressure, ServiceCore
from repro.serve.store import SQLiteResultStore
from repro.sim import codec
from repro.sim.jobs.cache import CacheBackend
from repro.sim.results import NetworkResult

__all__ = ["ClusterWorker"]

_log = get_logger("cluster.worker")


class ClusterWorker:
    """One shard: an asyncio front over a warm :class:`ServiceCore`.

    Parameters
    ----------
    core:
        The shard's :class:`ServiceCore` (owning the executor and store);
        a fresh in-memory-cached core is built when omitted.  The worker
        owns it: ``stop()`` closes it.
    host / port:
        Bind address; ``port=0`` asks the OS for a free port.
    name:
        Label for logs and the coordinator's ``/stats`` shard table
        (defaults to ``worker-<port>`` once bound).
    request_threads:
        Threads servicing blocking core calls.  More threads = more batches
        admitted concurrently (up to the core's ``queue_limit``).
    peer_timeout_s:
        Default per-lookup budget for the peer cache tier; the
        coordinator's ``POST /ring`` payload may override it.
    peer_write_through:
        Default write-through setting for the peer tier (same override).
    """

    def __init__(self, core: Optional[ServiceCore] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 name: Optional[str] = None,
                 request_threads: int = 8,
                 peer_timeout_s: float = 1.0,
                 peer_write_through: bool = True) -> None:
        if request_threads < 1:
            raise ValueError(
                f"request_threads must be >= 1, got {request_threads}")
        self.core = core if core is not None else ServiceCore()
        self.name = name
        self.peer_timeout_s = peer_timeout_s
        self.peer_write_through = peer_write_through
        self.peer_cache: Optional[PeerCacheBackend] = None
        self._peer_lock = threading.Lock()
        self._server = AsyncHTTPServer(self._handle, host=host, port=port,
                                       server_tag="loom-cluster-worker")
        self._pool: Optional[ThreadPoolExecutor] = None
        self._request_threads = request_threads
        self._stop_lock = threading.Lock()
        self._stopped = False
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "loom_worker_requests_total",
            "HTTP requests handled, by path and status.",
            labelnames=("path", "status"))
        self._request_seconds = self.metrics.histogram(
            "loom_worker_request_seconds",
            "Request latency in seconds, by path.",
            labelnames=("path",))
        self.metrics.gauge(
            "loom_worker_queue_depth",
            "Execution batches currently admitted (queue_limit bounds this).",
            collect=lambda: self.core._pending_batches)
        self.metrics.gauge(
            "loom_worker_inflight_keys",
            "Content keys currently executing (coalescing targets).",
            collect=lambda: len(self.core._inflight))
        self.metrics.gauge(
            "loom_worker_cache_hit_ratio",
            "Fraction of submitted jobs answered without a simulation.",
            collect=self.core.cache_hit_ratio)
        self.metrics.gauge(
            "loom_worker_jobs_executed_total",
            "Simulations actually run by this shard's executor.",
            collect=lambda: self.core.executor.stats.executed)
        self.metrics.gauge(
            "loom_worker_store_answers_total",
            "Submissions answered straight from the warm store.",
            collect=lambda: self.core.stats.store_answers)
        phase_histogram = self.metrics.histogram(
            "loom_executor_phase_seconds",
            "Executor wall time per phase (cache_lookup, layer_table_build, "
            "simulate, transport_scatter).",
            labelnames=("phase",))
        self.core.executor.phase_observer = (
            lambda phase, seconds: phase_histogram.observe(seconds,
                                                           phase=phase))

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return self._server.url

    def start(self) -> str:
        url = self._server.start()
        if self.name is None:
            self.name = f"worker-{self.port}"
        self._pool = ThreadPoolExecutor(
            max_workers=self._request_threads,
            thread_name_prefix=f"{self.name}-exec")
        self.core.started_at = time.time()
        _log.info("worker.started", name=self.name, url=url,
                  queue_limit=self.core.queue_limit)
        return url

    def stop(self, drain_timeout_s: float = 30.0) -> None:
        """Stop accepting, drain in-flight batches, close executor + store."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._server.stop(drain_timeout_s=min(drain_timeout_s, 10.0))
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.core.close(drain_timeout_s)
        _log.info("worker.stopped", name=self.name)

    def request_stop(self) -> None:
        """Trigger a graceful stop without blocking (signal-handler safe)."""
        threading.Thread(target=self.stop, daemon=True,
                         name=f"{self.name}-stop").start()

    def wait_until_stopped(self, poll_s: float = 0.5) -> None:
        """Block until the worker has stopped (the CLI child's main loop)."""
        while not self._stopped or self._server.loop is not None:
            time.sleep(poll_s)

    def __enter__(self) -> "ClusterWorker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- peer cache tier ------------------------------------------------------

    def configure_peers(self, nodes: Sequence[str],
                        self_url: Optional[str] = None,
                        replicas: int = 64,
                        timeout_s: Optional[float] = None,
                        write_through: Optional[bool] = None) -> int:
        """Activate (or re-shape) the peer cache tier over ``nodes``.

        Swaps the core cache's persistent backend for a
        :class:`PeerCacheBackend` wrapping it, so every local store miss
        consults the key's ring-preferred peer before the executor
        simulates.  Idempotent: a second call updates ring membership in
        place.  Returns the number of peers (nodes excluding this one).
        The coordinator drives this through ``POST /ring``; embedders may
        call it directly.
        """
        own = (self_url or self.url).rstrip("/")
        with self._peer_lock:
            if self.peer_cache is None:
                cache = self.core.cache
                if cache is None:
                    raise RuntimeError(
                        "this worker's executor has no result cache to "
                        "layer a peer tier onto")
                self.peer_cache = PeerCacheBackend(
                    local=cache.backend,
                    self_url=own,
                    timeout_s=(timeout_s if timeout_s is not None
                               else self.peer_timeout_s),
                    write_through=(write_through if write_through is not None
                                   else self.peer_write_through),
                    metrics=self.metrics)
                cache.backend = self.peer_cache
            else:
                if timeout_s is not None:
                    self.peer_cache.timeout_s = timeout_s
                if write_through is not None:
                    self.peer_cache.write_through = write_through
            self.peer_cache.configure(list(nodes), self_url=own,
                                      replicas=replicas)
            return sum(1 for node in nodes if node.rstrip("/") != own)

    def _local_tier(self) -> Optional[CacheBackend]:
        """The cache's persistent backend, minus any peer tier over it."""
        cache = self.core.cache
        backend = cache.backend if cache is not None else None
        if isinstance(backend, PeerCacheBackend):
            return backend.local
        return backend

    def _cache_lookup_many(self, keys: List[str]
                           ) -> Dict[str, NetworkResult]:
        """Local-tier-only lookup behind ``POST /cache/batch``; the hits.

        Checks the cache's memory layer, then the local persistent tier --
        never the peer tier, so a peer's lookup terminates here instead of
        chaining through the ring.
        """
        cache = self.core.cache
        if cache is None:
            return {}
        found: Dict[str, NetworkResult] = {}
        for key in keys:
            result = cache.peek_memory(key)
            if result is not None:
                found[key] = result
        local = self._local_tier()
        if local is not None:
            found.update(local.load_many(
                [key for key in keys if key not in found]))
        return found

    def _cache_store_many(
            self, entries: List[Tuple[str, NetworkResult, bytes]]) -> int:
        """Store a peer's write-through replicas in the local tier only.

        ``entries`` are ``(key, result, frame)``: a SQLite store writes
        the received frames as they are, in one transaction.
        """
        cache = self.core.cache
        if cache is None:
            return 0
        local = self._local_tier()
        if local is None:
            # Memory-only worker without a peer tier yet: remember the
            # replicas in the memory layer so lookups can still serve them.
            cache.put_many([(key, result, None)
                            for key, result, _ in entries])
        else:
            local.store_encoded([(key, result, frame, None)
                                 for key, result, frame in entries])
        return len(entries)

    # -- request handling -----------------------------------------------------

    async def _in_thread(self, fn, *args):
        """Run a blocking core call on the worker pool.

        The call is bound to a snapshot of the current (asyncio-task)
        context: pool threads do not inherit contextvars, and without the
        snapshot executor spans opened inside ``fn`` would start fresh
        traces instead of joining the request's.
        """
        if self._pool is None:
            raise RuntimeError("worker is not running")
        loop = self._server.loop
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._pool, lambda: context.run(fn, *args))

    async def _handle(self, request: HTTPRequest,
                      responder: HTTPResponder) -> None:
        started = time.monotonic()
        path = request.path.rstrip("/") or "/"
        label = "/jobs/<key>" if path.startswith("/jobs/") else path
        tracer = get_tracer()
        try:
            with tracer.remote_parent(request.headers.get("traceparent")):
                with tracer.span(f"worker.{request.method} {label}",
                                 path=path, worker=self.name or "") as span:
                    await self._route(request, responder, path)
                    if span is not None and responder.status is not None:
                        span.set_attr("status", responder.status)
        finally:
            status = responder.status if responder.status is not None else 500
            self._requests_total.inc(path=label, status=str(status))
            self._request_seconds.observe(time.monotonic() - started,
                                          path=label)

    async def _route(self, request: HTTPRequest, responder: HTTPResponder,
                     path: str) -> None:
        method = request.method
        if method == "GET" and path == "/healthz":
            await responder.send_json(200, {
                "ok": True,
                "role": "worker",
                "name": self.name,
                "uptime_s": time.time() - (self.core.started_at or
                                           time.time()),
            })
        elif method == "GET" and path == "/stats":
            payload = await self._in_thread(self.core.stats_dict)
            payload["role"] = "worker"
            payload["name"] = self.name
            await responder.send_json(200, payload)
        elif method == "GET" and path == "/metrics":
            await responder.send_text(200, self.metrics.render())
        elif method == "GET" and path == "/trace":
            tracer = get_tracer()
            await responder.send_json(200, {
                "service": self.name or tracer.service,
                "spans": [span.to_dict()
                          for span in tracer.recorder.spans()],
            })
        elif method == "GET" and path.startswith("/jobs/"):
            key = path[len("/jobs/"):]
            status, result = await self._in_thread(self.core.lookup, key)
            if status == "done":
                await responder.send_json(200, {"key": key, "status": "done",
                                                "result": result.to_dict()})
            elif status == "pending":
                await responder.send_json(202, {"key": key,
                                                "status": "pending"})
            else:
                self.core._bump("errors")
                await responder.send_json(404,
                                          {"error": f"no result for key "
                                                    f"{key!r}"})
        elif method == "POST" and path == "/cache/batch":
            keys = request.json().get("keys")
            if not isinstance(keys, list) or \
                    not all(isinstance(key, str) for key in keys):
                raise RequestError(400, "'keys' must be a list of strings")
            body = await self._in_thread(lambda: codec.encode_entries(
                (key, codec.encode([result]))
                for key, result in self._cache_lookup_many(keys).items()))
            await responder.send(200, body, codec.FRAME_CONTENT_TYPE)
        elif method == "PUT" and path == "/cache/batch":
            entries = await self._in_thread(_replica_entries, request.body)
            stored = await self._in_thread(self._cache_store_many, entries)
            await responder.send_json(200, {"ok": True, "stored": stored})
        elif method == "POST" and path == "/ring":
            payload = request.json()
            nodes = payload.get("nodes")
            if not isinstance(nodes, list) or not nodes or \
                    not all(isinstance(node, str) for node in nodes):
                raise RequestError(
                    400, "'nodes' must be a non-empty list of worker URLs")
            timeout_ms = payload.get("timeout_ms")
            peers = await self._in_thread(
                lambda: self.configure_peers(
                    nodes,
                    self_url=payload.get("self"),
                    replicas=int(payload.get("replicas", 64)),
                    timeout_s=(float(timeout_ms) / 1000.0
                               if timeout_ms is not None else None),
                    write_through=payload.get("write_through")))
            await responder.send_json(200, {"ok": True, "peers": peers,
                                            "self": self.peer_cache.self_url})
        elif method == "POST" and path == "/jobs":
            await self._handle_jobs(request, responder)
        elif method == "POST" and path == "/shutdown":
            await responder.send_json(200, {"ok": True, "stopping": True})
            responder.close_after = True
            # The server cannot tear itself down from inside a handler; a
            # plain thread does it once this response is on the wire.
            self.request_stop()
        else:
            self.core._bump("errors")
            await responder.send_json(404,
                                      {"error": f"unknown path "
                                                f"{request.path!r}"})

    async def _handle_jobs(self, request: HTTPRequest,
                           responder: HTTPResponder) -> None:
        payload = request.json()
        single = "points" not in payload
        if single:
            point = payload.get("point", payload)
            if not isinstance(point, dict) or not point:
                raise ValueError(
                    "POST /jobs expects a point object, {'point': {...}} or "
                    "{'points': [...]}"
                )
            points = [point]
        else:
            points = payload["points"]
            if not isinstance(points, list) or not points:
                raise ValueError("'points' must be a non-empty JSON array")
        self.core._bump("requests")
        try:
            submitted = await self._in_thread(self.core.submit_points, points)
        except Backpressure as bp:
            self.core._bump("errors")
            await responder.send_json(
                429, {"error": str(bp)},
                headers={"Retry-After": str(bp.retry_after_s)})
            return
        except (ValueError, KeyError, TypeError) as error:
            self.core._bump("errors")
            await responder.send_json(
                400, {"error": f"{type(error).__name__}: {error}"})
            return
        except TimeoutError as error:
            self.core._bump("errors")
            await responder.send_json(504, {"error": str(error)})
            return
        if single:
            await responder.send_json(200, submitted[0].to_dict())
        else:
            await responder.send_json(200, {
                "results": [entry.to_dict() for entry in submitted],
            })

    def stats_dict(self) -> Dict[str, object]:
        payload = self.core.stats_dict()
        payload["role"] = "worker"
        payload["name"] = self.name
        return payload


def _replica_entries(body: bytes
                     ) -> List[Tuple[str, NetworkResult, bytes]]:
    """Validate a ``PUT /cache/batch`` frame batch into ``(key, result,
    frame)`` triples; each frame must decode to exactly one result.

    All or nothing: one malformed entry refuses the whole batch with 400,
    so a peer never stores half of a request it was told was bad.
    """
    try:
        entries = codec.decode_entries(body)
    except ValueError as error:
        raise RequestError(400, f"bad write-through batch: {error}") \
            from None
    parsed = []
    for index, (key, frame) in enumerate(entries):
        try:
            (result,) = codec.decode(frame)
        except ValueError as error:
            raise RequestError(
                400, f"bad write-through entry {index}: {error}") from None
        parsed.append((key, result, frame))
    return parsed


def worker_process_main(ready_queue, store_path: Optional[str] = None,
                        queue_limit: int = 8,
                        max_memory_entries: int = 512,
                        host: str = "127.0.0.1", port: int = 0,
                        log_level: str = "info",
                        log_json: bool = False) -> None:
    """Entry point for one ``loom-repro cluster`` worker child process.

    Builds a :class:`ClusterWorker` around a fresh executor (backed by a
    private SQLite store when ``store_path`` is given), reports the bound
    URL through ``ready_queue``, and serves until a ``POST /shutdown`` or
    SIGTERM/SIGINT stops it.  Module-level so ``multiprocessing`` spawn
    contexts can import it by reference.  ``log_level`` / ``log_json``
    forward the parent CLI's logging flags into the child (spawn contexts
    start with default logging otherwise).
    """
    import signal

    from repro.obs import Tracer, configure_logging, set_tracer
    from repro.sim.jobs import JobExecutor
    from repro.sim.jobs.cache import ResultCache

    configure_logging(level=log_level, json_output=log_json)
    backend = SQLiteResultStore(store_path) if store_path else None
    executor = JobExecutor(
        cache=ResultCache(backend=backend,
                          max_memory_entries=max_memory_entries))
    worker = ClusterWorker(core=ServiceCore(executor=executor,
                                            queue_limit=queue_limit),
                           host=host, port=port)
    url = worker.start()
    # Name this process's spans after the shard so a merged Chrome trace
    # shows one row per worker instead of an undifferentiated "loom".
    set_tracer(Tracer(service=worker.name or "worker"))
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, lambda *_: worker.request_stop())
        except ValueError:  # pragma: no cover - not the main thread
            break
    ready_queue.put(url)
    worker.wait_until_stopped()
