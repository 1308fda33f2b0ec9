"""Cluster-shared cache tier: batched, ring-routed peer lookups behind a
local store.

Cluster shards were shared-nothing through PR 7: each worker's warm
:class:`~repro.serve.store.SQLiteResultStore` answered only the keys that
worker had simulated itself, so a failover or ring change that re-routed a
key to another shard paid for a fresh simulation -- throwing away exactly
the warm-store amortisation that makes ``serve`` worth running.

:class:`PeerCacheBackend` turns the N private stores into one cluster-wide
result cache.  It implements the :class:`~repro.sim.jobs.cache.CacheBackend`
protocol and layers the shard's *local* tier (its SQLite store, or a small
in-memory LRU when the shard runs storeless) in front of a *peer* tier.
The peer tier works in batches, so a shard batch costs one request per
peer in each direction, not one per key:

* **load_many** -- the local misses of a whole lookup are grouped by each
  key's ring-preferred peer (the node a re-routed key would land on), and
  each peer is asked once, over ``POST /cache/batch {"keys": [...]}``,
  before the caller pays for simulations.  Peers are asked concurrently
  and answer with a batch of keyed result frames (:mod:`repro.sim.codec`).
  Peer answers are copied into the local tier, so each key crosses the
  network at most once per shard.  A frame that does not decode is an
  invalid miss.  :meth:`~PeerCacheBackend.load` is a
  batch of one.
* **single-flight** -- a key already in flight in another thread's batch
  is joined, not re-asked; followers wait on the leader's outcome instead
  of stampeding the peer.
* **timeout budget** -- one strict deadline (``timeout_s``) covers the
  whole batch, every peer included; a slow or dead peer degrades gracefully
  to local compute, and a connection-refused peer is put on a short
  cooldown so a dead shard does not tax every subsequent miss with a full
  timeout.
* **write-through** -- a freshly stored result is queued for the key's
  failover target: the ring owner when this shard is not the owner, or the
  ring *successor* when it is.  That is precisely the shard the key will be
  re-routed to if this one dies, which is what keeps re-routed keys warm
  across failover.  The I/O loop sends everything queued for a peer as one
  ``PUT /cache/batch`` whose body is a batch of keyed frames (split so no
  body exceeds :data:`repro.cluster.aio.MAX_BODY_BYTES`); stores that
  arrive while that request is in flight ride the next one.  Each result
  is encoded once: the same frame goes to the local SQLite store and to
  the peer, which stores it as received.  Fire and forget.

The peer target for both directions is ``ring.node_for(key,
exclude={self})``: for a non-owner that is the owner; for the owner it is
the failover successor.  One expression covers lookup and replication.

The backend runs its network I/O on a private asyncio loop in a daemon
thread (reusing :func:`repro.cluster.aio.fetch`), so it can be driven from
the synchronous :class:`~repro.sim.jobs.cache.ResultCache` / executor path
without touching the worker's own event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import aio
from repro.cluster.aio import HTTPReply, fetch
from repro.cluster.ring import ConsistentHashRing
from repro.obs import get_logger, get_tracer
from repro.obs.metrics import PEER_LATENCY_BUCKETS, MetricsRegistry
from repro.sim import codec
from repro.sim.jobs.cache import CacheBackend, Spec
from repro.sim.results import NetworkResult

__all__ = ["PeerCacheBackend"]

_log = get_logger("cluster.peercache")

#: Buckets of the ``loom_peer_cache_batch_keys`` histogram (keys/request).
_BATCH_KEYS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _log_unexpected_failure(future: concurrent.futures.Future) -> None:
    """Done-callback of a replication task: report what it did not catch.

    Transport failures are counted inside the task; anything reaching here
    is a defect, and replication is fire-and-forget, so it is logged rather
    than lost with the future.
    """
    if not future.cancelled() and future.exception() is not None:
        _log.error("peercache.replicate_failed",
                   error=f"{type(future.exception()).__name__}: "
                         f"{future.exception()}")


def _bodies(parts: Sequence[bytes], head: bytes, tail: bytes = b"",
            sep: bytes = b"") -> Iterator[Tuple[bytes, int]]:
    """Join encoded parts into ``head + part sep part ... + tail`` bodies.

    Yields ``(body, count)`` pairs, in order, each body within
    :data:`repro.cluster.aio.MAX_BODY_BYTES` (read at call time).  A single
    part too large for any body is sent alone; the peer answers it 413.
    """
    limit = aio.MAX_BODY_BYTES - len(head) - len(tail)
    batch: List[bytes] = []
    size = 0
    for part in parts:
        if batch and size + len(sep) + len(part) > limit:
            yield head + sep.join(batch) + tail, len(batch)
            batch, size = [], 0
        size += len(part) + (len(sep) if batch else 0)
        batch.append(part)
    if batch:
        yield head + sep.join(batch) + tail, len(batch)


class _Flight:
    """One in-flight peer fetch other misses of the same key can join."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[NetworkResult] = None


class _MemoryTier(CacheBackend):
    """Bounded in-memory local tier for storeless shards.

    A shard started with ``--no-store`` has no SQLite store to hold peer
    answers and write-through replicas; this small LRU dict stands in so
    the peer tier still works (replicas must land *somewhere* for failover
    to find them).
    """

    name = "memory tier"
    keeps_spec = False

    def __init__(self, max_entries: int = 512) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, NetworkResult]" = OrderedDict()
        self._lock = threading.Lock()

    def load(self, key: str) -> Optional[NetworkResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def store(self, key: str, result: NetworkResult,
              spec: Spec = None) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PeerCacheBackend(CacheBackend):
    """Ring-routed peer tier layered behind a shard's local store.

    Parameters
    ----------
    local:
        The shard's local tier (typically its
        :class:`~repro.serve.store.SQLiteResultStore`).  ``None`` installs
        a bounded in-memory tier so storeless shards can still hold peer
        answers and write-through replicas.
    ring / self_url:
        Ring membership and this shard's own URL.  Both may be deferred to
        :meth:`configure` (the worker learns membership from the
        coordinator's ``POST /ring``); until configured, the backend
        behaves exactly like its local tier.
    timeout_s:
        Strict budget for one batched peer lookup, every peer and queueing
        included.  On expiry the unanswered keys are abandoned (counted in
        ``peer_timeouts``) and the caller computes them locally.
    write_through:
        Replicate fresh results to each key's failover target so re-routed
        keys stay warm across shard death.  Fire-and-forget; failures are
        counted, never raised.
    dead_peer_cooldown_s:
        After a connection-level failure, skip asking that peer again for
        this long (a dead shard should cost one timeout, not one per miss).
    metrics:
        Optional :class:`MetricsRegistry` to surface
        ``loom_peer_cache_{hits,misses,timeouts}_total`` counters (per key)
        and the ``loom_peer_cache_fetch_seconds`` and
        ``loom_peer_cache_batch_keys`` histograms (per request) on
        ``/metrics``.
    """

    name = "peer cache"

    def __init__(self, local: Optional[CacheBackend] = None,
                 ring: Optional[ConsistentHashRing] = None,
                 self_url: str = "",
                 timeout_s: float = 1.0,
                 write_through: bool = True,
                 dead_peer_cooldown_s: float = 2.0,
                 metrics: Optional[MetricsRegistry] = None,
                 max_memory_entries: int = 512) -> None:
        super().__init__()
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.local = local if local is not None \
            else _MemoryTier(max_memory_entries)
        self.keeps_spec = self.local.keeps_spec
        self.ring = ring
        self.self_url = self_url.rstrip("/")
        self.timeout_s = timeout_s
        self.write_through = write_through
        self.dead_peer_cooldown_s = dead_peer_cooldown_s
        #: Peer-tier counters, per key (plain ints; /stats + tests read them).
        self.peer_hits = 0
        self.peer_misses = 0
        self.peer_timeouts = 0
        self.peer_writes = 0
        self.peer_write_errors = 0
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._cooldown_until: Dict[str, float] = {}
        #: Write-through replicas (``(key, frame)``) waiting for their
        #: peer's next request, and the replication task of each peer with
        #: one running.
        self._write_queue: Dict[str, List[Tuple[str, bytes]]] = {}
        self._writers: Dict[str, concurrent.futures.Future] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._closed = False
        # Without a caller's registry the instruments still count, unseen.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits_metric = metrics.counter(
            "loom_peer_cache_hits_total",
            "Local misses answered by a peer shard's cache.")
        self._misses_metric = metrics.counter(
            "loom_peer_cache_misses_total",
            "Peer lookups the owning shard could not answer.")
        self._timeouts_metric = metrics.counter(
            "loom_peer_cache_timeouts_total",
            "Peer lookups abandoned because the peer was slow or dead.")
        self._fetch_seconds = metrics.histogram(
            "loom_peer_cache_fetch_seconds",
            "Peer cache fetch latency in seconds: one observation per "
            "POST /cache/batch request, which asks one peer for a batch "
            "of keys (hits and misses).",
            buckets=PEER_LATENCY_BUCKETS)
        self._batch_keys = metrics.histogram(
            "loom_peer_cache_batch_keys",
            "Keys per peer cache batch request, by op (lookup: POST "
            "/cache/batch, replicate: PUT /cache/batch).",
            buckets=_BATCH_KEYS_BUCKETS, labelnames=("op",))

    # -- membership -----------------------------------------------------------

    def configure(self, nodes: List[str], self_url: Optional[str] = None,
                  replicas: int = 64) -> None:
        """(Re)build the ring over ``nodes``; idempotent membership update.

        ``replicas`` must match the coordinator's ring or the two sides
        would disagree about key ownership.
        """
        ring = ConsistentHashRing((url.rstrip("/") for url in nodes),
                                  replicas=replicas)
        with self._lock:
            self.ring = ring
            if self_url is not None:
                self.self_url = self_url.rstrip("/")
            self._cooldown_until.clear()

    def peer_for(self, key: str) -> Optional[str]:
        """The peer worth asking (and replicating to) for ``key``.

        The first ring node that is not this shard: the key's owner when
        we are not it, its failover successor when we are.  ``None`` when
        the ring is unconfigured or holds no other node.
        """
        ring = self.ring
        if ring is None or not self.self_url:
            return None
        return ring.node_for(key, exclude={self.self_url})

    # -- CacheBackend protocol ------------------------------------------------

    def load(self, key: str) -> Optional[NetworkResult]:
        return self.load_many((key,)).get(key)

    def load_many(self, keys: Iterable[str]) -> Dict[str, NetworkResult]:
        """Local tier first; the misses cost one request per peer."""
        keys = list(dict.fromkeys(keys))
        found = self.local.load_many(keys)
        if len(found) == len(keys):
            return found
        deadline = time.monotonic() + self.timeout_s
        asks: Dict[str, List[str]] = {}
        joined: Dict[str, _Flight] = {}
        cooled = 0
        with self._lock:
            now = time.monotonic()
            for key in keys:
                if key in found:
                    continue
                peer = self.peer_for(key)
                if peer is None:
                    continue
                if now < self._cooldown_until.get(peer, 0.0):
                    cooled += 1
                elif key in self._inflight:
                    # Single-flight follower: share the leader's outcome
                    # (which may be a miss) instead of asking again.
                    joined[key] = self._inflight[key]
                else:
                    self._inflight[key] = _Flight()
                    asks.setdefault(peer, []).append(key)
        self._count(timeouts=cooled)
        if asks:
            fetched: Dict[str, Tuple[NetworkResult, bytes]] = {}
            try:
                fetched = self._ask_peers(asks, deadline)
                self.local.store_encoded([
                    (key, result, frame, None)
                    for key, (result, frame) in fetched.items()])
            finally:
                with self._lock:
                    flights = [(key, self._inflight.pop(key))
                               for group in asks.values() for key in group]
                for key, flight in flights:
                    hit = fetched.get(key)
                    flight.result = hit[0] if hit else None
                    flight.event.set()
            found.update((key, result)
                         for key, (result, _) in fetched.items())
        for key, flight in joined.items():
            flight.event.wait(max(0.0, deadline - time.monotonic()))
            if flight.result is not None:
                found[key] = flight.result
        return found

    def store(self, key: str, result: NetworkResult,
              spec: Spec = None) -> None:
        self.store_many([(key, result, spec)])

    def store_many(self, entries: Sequence[
            Tuple[str, NetworkResult, Spec]]) -> None:
        """Store locally, then queue each replica for its failover peer.

        A result is encoded at most once: the frame the local store keeps
        is the frame the peer receives.
        """
        peers = ([self.peer_for(key) for key, _, _ in entries]
                 if self.write_through else [None] * len(entries))
        if not any(peers):
            self.local.store_many(entries)
            return
        frames = [codec.encode([result]) for _, result, _ in entries]
        self.local.store_encoded([(key, result, frame, spec)
                                  for (key, result, spec), frame
                                  in zip(entries, frames)])
        try:
            loop = self._ensure_loop()
        except RuntimeError:  # closed mid-store
            return
        started = []
        with self._lock:
            if self._closed:  # close() stops the loop once this is set
                return
            for (key, _, _), frame, peer in zip(entries, frames, peers):
                if peer is None:
                    continue
                self._write_queue.setdefault(peer, []).append((key, frame))
                if peer in self._writers:
                    continue  # rides the request after the one in flight
                writer = asyncio.run_coroutine_threadsafe(
                    self._replicate(peer), loop)
                self._writers[peer] = writer
                started.append(writer)
        for writer in started:
            writer.add_done_callback(_log_unexpected_failure)

    def contains(self, key: str) -> bool:
        """Local tier only: membership probes must not pay network I/O."""
        return self.local.contains(key)

    def __len__(self) -> int:
        return len(self.local)

    def describe(self) -> str:
        peers = (len(self.ring) - 1) if self.ring is not None else 0
        return f"{self.name} ({max(peers, 0)} peers over " \
               f"{self.local.describe()})"

    def close(self) -> None:
        self.flush_writes(timeout_s=2.0)
        with self._lock:
            self._closed = True
            loop, thread = self._loop, self._loop_thread
            self._loop = self._loop_thread = None
        if loop is not None:
            # Cancel and drain any still-pending request before stopping
            # the loop, so their transports close on a live loop instead of
            # complaining from the garbage collector.
            async def _drain() -> None:
                tasks = [task for task in asyncio.all_tasks()
                         if task is not asyncio.current_task()]
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

            try:
                asyncio.run_coroutine_threadsafe(
                    _drain(), loop).result(timeout=5.0)
            except (concurrent.futures.TimeoutError, RuntimeError):
                pass  # best effort: the loop stops either way
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)
        self.local.close()

    # -- peer I/O -------------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise RuntimeError("peer cache backend is closed")
            if self._loop is not None:
                return self._loop
            loop = asyncio.new_event_loop()
            ready = threading.Event()

            def _run() -> None:
                asyncio.set_event_loop(loop)
                loop.call_soon(ready.set)
                loop.run_forever()
                loop.close()

            thread = threading.Thread(target=_run, daemon=True,
                                      name="loom-peer-cache-io")
            thread.start()
            self._loop = loop
            self._loop_thread = thread
        ready.wait(timeout=5.0)
        return loop

    def _ask_peers(self, asks: Dict[str, List[str]], deadline: float
                   ) -> Dict[str, Tuple[NetworkResult, bytes]]:
        """Ask every peer for its keys at once, all under ``deadline``.

        One ``POST /cache/batch`` per peer (more only if the keys overflow
        one body).  Returns the hits as ``(result, frame)``.  A peer that times out or fails
        costs its keys as ``peer_timeouts``; nothing here may raise -- the
        caller always has local compute to fall back on.
        """
        requests: List[Tuple[str, List[str], concurrent.futures.Future]] = []
        try:
            loop = self._ensure_loop()
        except RuntimeError:  # closed: behave like a dead peer
            for peer, keys in asks.items():
                self._note_failure(peer, len(keys), cooldown=True)
            return {}
        for peer, keys in asks.items():
            parts = [json.dumps(key).encode("utf-8") for key in keys]
            start = 0
            for body, count in _bodies(parts, b'{"keys": [', b"]}", b","):
                chunk = keys[start:start + count]
                start += count
                requests.append((peer, chunk, asyncio.run_coroutine_threadsafe(
                    self._lookup(peer, count, body, deadline), loop)))
        concurrent.futures.wait([future for _, _, future in requests],
                                timeout=max(0.0, deadline - time.monotonic()))
        found: Dict[str, Tuple[NetworkResult, bytes]] = {}
        for peer, keys, future in requests:
            if not future.done():
                future.cancel()
                self._note_failure(peer, len(keys), cooldown=False)
                continue
            try:
                reply = future.result()
            except (TimeoutError, asyncio.TimeoutError,
                    concurrent.futures.TimeoutError,
                    concurrent.futures.CancelledError):
                # (pre-3.11 futures/asyncio timeout classes are distinct
                # from the builtin)
                self._note_failure(peer, len(keys), cooldown=False)
            except (ConnectionError, OSError, ValueError):
                # Connection refused / reset, or an unusable peer URL: the
                # peer is dead or restarting.  Cool it down so the next
                # misses skip straight to computing.
                self._note_failure(peer, len(keys), cooldown=True)
            else:
                found.update(self._parse_lookup(reply, keys))
        return found

    async def _lookup(self, peer: str, keys: int, body: bytes,
                      deadline: float) -> HTTPReply:
        """One ``POST /cache/batch`` on the I/O loop, timed and traced."""
        started = time.monotonic()
        with get_tracer().span("peercache.lookup", peer=peer, keys=keys):
            try:
                return await asyncio.wait_for(
                    fetch(peer, "POST", "/cache/batch", body=body,
                          timeout_s=self.timeout_s),
                    timeout=max(0.0, deadline - time.monotonic()))
            finally:
                self._fetch_seconds.observe(time.monotonic() - started)
                self._batch_keys.observe(keys, op="lookup")

    def _parse_lookup(self, reply: HTTPReply, keys: List[str]
                      ) -> Dict[str, Tuple[NetworkResult, bytes]]:
        """The hits in one batch reply as ``(result, frame)``; a key it
        lacks is a miss.

        A reply that is not a frame batch, or a frame that does not decode
        to one result, counts in ``invalid_entries`` and its keys miss.
        """
        found: Dict[str, Tuple[NetworkResult, bytes]] = {}
        if reply.status == 200:
            wanted = set(keys)
            try:
                entries = codec.decode_entries(reply.body)
            except ValueError:
                entries = []
                self.invalid_entries += 1
            for key, frame in entries:
                if key not in wanted:
                    continue
                try:
                    (result,) = codec.decode(frame)
                except ValueError:
                    self.invalid_entries += 1
                else:
                    found[key] = (result, frame)
        self._count(hits=len(found), misses=len(keys) - len(found))
        return found

    def _note_failure(self, peer: str, keys: int, cooldown: bool) -> None:
        if cooldown and self.dead_peer_cooldown_s > 0:
            with self._lock:
                self._cooldown_until[peer] = (time.monotonic()
                                              + self.dead_peer_cooldown_s)
        self._count(timeouts=keys)

    def _count(self, hits: int = 0, misses: int = 0,
               timeouts: int = 0) -> None:
        with self._lock:
            self.peer_hits += hits
            self.peer_misses += misses
            self.peer_timeouts += timeouts
        for metric, amount in ((self._hits_metric, hits),
                               (self._misses_metric, misses),
                               (self._timeouts_metric, timeouts)):
            if amount:
                metric.inc(amount)

    async def _replicate(self, peer: str) -> None:
        """Send ``peer`` everything queued for it, until the queue is dry.

        One ``PUT /cache/batch`` per body; replicas stored meanwhile wait
        for the next round, so a shard batch costs about one request per
        peer however many results it stores.
        """
        try:
            while True:
                with self._lock:
                    entries = self._write_queue.pop(peer, None)
                    if not entries:
                        del self._writers[peer]
                        return
                parts = [codec.encode_entry(key, frame)
                         for key, frame in entries]
                for body, count in _bodies(parts, codec.BATCH_HEADER):
                    stored = await self._send_replicas(peer, body, count)
                    with self._lock:
                        if stored:
                            self.peer_writes += count
                        else:
                            self.peer_write_errors += count
        except BaseException:  # cancelled by close(), or a bug
            with self._lock:
                self._writers.pop(peer, None)
            raise

    async def _send_replicas(self, peer: str, body: bytes,
                             count: int) -> bool:
        """One ``PUT /cache/batch``; True when the peer stored it."""
        self._batch_keys.observe(count, op="replicate")
        with get_tracer().span("peercache.replicate", peer=peer, keys=count):
            try:
                reply = await fetch(
                    peer, "PUT", "/cache/batch", body=body,
                    timeout_s=self.timeout_s,
                    headers={"Content-Type": codec.FRAME_CONTENT_TYPE})
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    ValueError):
                return False
            return 200 <= reply.status < 300

    def flush_writes(self, timeout_s: float = 5.0) -> bool:
        """Wait for outstanding write-through replications; True when none
        remain.  Tests (and close()) use this for determinism -- the hot
        path never waits on replication."""
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                if not self._write_queue and not self._writers:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    # -- introspection --------------------------------------------------------

    def stats_dict(self) -> Dict[str, object]:
        """Peer-tier counters plus the local tier's own stats (the /stats
        ``store`` section on peer-aware shards)."""
        with self._lock:
            payload: Dict[str, object] = {
                "backend": "peer cache",
                "peers": max((len(self.ring) - 1), 0)
                if self.ring is not None else 0,
                "timeout_s": self.timeout_s,
                "write_through": self.write_through,
                "peer_hits": self.peer_hits,
                "peer_misses": self.peer_misses,
                "peer_timeouts": self.peer_timeouts,
                "peer_writes": self.peer_writes,
                "peer_write_errors": self.peer_write_errors,
            }
        payload["local"] = (self.local.stats_dict()
                            if hasattr(self.local, "stats_dict")
                            else {"backend": self.local.describe(),
                                  "entries": len(self.local)})
        return payload
