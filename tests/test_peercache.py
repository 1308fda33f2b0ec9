"""Tests for the cluster-shared cache tier (repro.cluster.peercache).

The acceptance contract of the peer-cache ISSUE:

* ``PeerCacheBackend`` unit behaviour: local hits never touch the network,
  peer hits are fetched and copied into the local tier, a slow or dead peer
  degrades gracefully to local compute within the timeout budget, and
  concurrent misses of one key share a single peer fetch (single-flight);
* cluster integration: a key simulated on shard A is a **cache hit**
  (status ``"cached"``) after failover routes it to shard B -- the
  coordinator's survivor probe answers >= 90% of a dead shard's
  already-simulated keys from the peer tier instead of re-simulating;
* a peer-timeout fault injection still completes the batch bit-identically
  via local compute;
* the new ``loom_peer_cache_*`` series appear on worker ``/metrics``.
"""

import contextlib
import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterCoordinator, ClusterWorker, PeerCacheBackend
from repro.cluster.ring import ConsistentHashRing
from repro.serve import ServeClient
from repro.sim import codec
from repro.sim.jobs import JobExecutor
from repro.sim.results import LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

MATRIX = [{"network": network, "accelerator": accelerator}
          for network in ("alexnet", "nin")
          for accelerator in ("loom", "dpnn", "dstripes")]

KEY = "k" * 64


def _result(cycles=100.0, network="netA", accelerator="AccX"):
    result = NetworkResult(network=network, accelerator=accelerator,
                           clock_ghz=1.0)
    result.add(LayerResult(layer_name="conv1", layer_kind="conv",
                           cycles=cycles, energy_pj=5.5, macs=10))
    return result


_FRAME = codec.encode([_result()])


def _record(raw_key, frame):
    """One raw frame-batch record, whatever its key bytes."""
    return struct.pack("<HI", len(raw_key), len(frame)) + raw_key + frame


def _post(url, payload, method="POST"):
    """Send ``payload`` as JSON; a frame-batch reply (the peer-cache lookup
    answer) comes back in dict form as ``{"results": {key: result}}``."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method=method)
    with urllib.request.urlopen(request, timeout=10.0) as response:
        body = response.read()
        if response.headers["Content-Type"] == codec.FRAME_CONTENT_TYPE:
            return {"results": {
                key: codec.decode(frame)[0].to_dict()
                for key, frame in codec.decode_entries(body)}}
        return json.loads(body.decode("utf-8"))


@contextlib.contextmanager
def peer_cluster(n=2, coordinator_kwargs=None):
    """A started peer-cache-enabled coordinator + n workers + client."""
    workers = [ClusterWorker() for _ in range(n)]
    for worker in workers:
        worker.start()
    coordinator = ClusterCoordinator(
        [worker.url for worker in workers],
        health_interval_s=60.0,  # request-path failover only: deterministic
        **(coordinator_kwargs or {}))
    coordinator.start()
    try:
        yield coordinator, workers, ServeClient(coordinator.url,
                                                timeout_s=120.0)
    finally:
        coordinator.stop()
        for worker in workers:
            worker.stop()


@contextlib.contextmanager
def black_hole():
    """A TCP endpoint that accepts connections and never answers (the
    slow-peer fault: connects fine, then eats the timeout budget)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    stop = threading.Event()

    def _accept() -> None:
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            accepted.append(conn)  # hold it open, say nothing

    thread = threading.Thread(target=_accept, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=2.0)
        for conn in accepted:
            conn.close()
        listener.close()


class TestPeerCacheUnit:
    def test_local_hit_never_asks_the_peer(self):
        backend = PeerCacheBackend(timeout_s=0.2)
        # The ring routes everything to an address that would explode if
        # contacted; a local hit must answer before routing even matters.
        backend.configure(["http://self:1", "http://peer:1"],
                          self_url="http://self:1")
        backend.local.store(KEY, _result())
        loaded = backend.load(KEY)
        assert loaded is not None
        assert loaded.to_dict() == _result().to_dict()
        assert backend.peer_hits == backend.peer_misses == 0
        assert backend.peer_timeouts == 0
        backend.close()

    def test_unconfigured_backend_behaves_like_its_local_tier(self):
        backend = PeerCacheBackend()
        assert backend.load(KEY) is None  # no ring: a plain local miss
        backend.store(KEY, _result())    # and no write-through anywhere
        assert backend.load(KEY).to_dict() == _result().to_dict()
        assert backend.peer_hits == backend.peer_timeouts == 0
        backend.close()

    def test_peer_hit_is_fetched_and_copied_into_the_local_tier(self):
        with ClusterWorker() as peer:
            peer.core.cache.put(KEY, _result(cycles=42.0))
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0, write_through=False)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            loaded = backend.load(KEY)
            assert loaded is not None
            assert loaded.to_dict() == _result(cycles=42.0).to_dict()
            assert backend.peer_hits == 1
            # The answer was copied locally: the next load is a local hit,
            # not a second network fetch.
            assert backend.load(KEY) is not None
            assert backend.peer_hits == 1
            backend.close()

    def test_peer_miss_is_counted_and_returns_none(self):
        with ClusterWorker() as peer:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            assert backend.load(KEY) is None
            assert backend.peer_misses == 1
            assert backend.peer_hits == 0
            backend.close()

    def test_slow_peer_times_out_within_budget_and_degrades(self):
        with black_hole() as url:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=0.3)
            backend.configure([url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            started = time.monotonic()
            assert backend.load(KEY) is None  # caller computes locally
            elapsed = time.monotonic() - started
            assert elapsed < 2.0  # the strict budget, not a hung socket
            assert backend.peer_timeouts >= 1
            backend.close()

    def test_dead_peer_cooldown_skips_repeat_timeouts(self):
        # Connection refused (no listener) -> cooldown: the second miss
        # must not pay another connection attempt.
        backend = PeerCacheBackend(self_url="http://nowhere:1",
                                   timeout_s=0.5, dead_peer_cooldown_s=30.0)
        backend.configure(["http://127.0.0.1:9", "http://nowhere:1"],
                          self_url="http://nowhere:1")
        assert backend.load(KEY) is None
        first = backend.peer_timeouts
        assert first >= 1
        started = time.monotonic()
        assert backend.load("x" * 64) is None
        assert time.monotonic() - started < 0.2  # skipped, not re-dialed
        assert backend.peer_timeouts == first + 1
        backend.close()

    def test_single_flight_shares_one_fetch_across_concurrent_misses(self):
        backend = PeerCacheBackend(self_url="http://nowhere:1",
                                   timeout_s=5.0)
        backend.configure(["http://peer:1", "http://nowhere:1"],
                          self_url="http://nowhere:1")
        fetches = []
        release = threading.Event()
        shared = _result(cycles=7.0)

        def fake_ask_peers(asks, deadline):
            fetches.append(asks)
            release.wait(timeout=5.0)
            frame = codec.encode([shared])
            return {key: (shared, frame)
                    for keys in asks.values() for key in keys}

        backend._ask_peers = fake_ask_peers
        outcomes = []
        threads = [threading.Thread(
            target=lambda: outcomes.append(backend.load(KEY)))
            for _ in range(6)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # let every thread reach the flight
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(fetches) == 1  # one leader fetched; followers shared
        assert len(outcomes) == 6
        assert all(out is shared for out in outcomes)
        backend.close()

    def test_write_through_replicates_to_the_failover_target(self):
        with ClusterWorker() as a, ClusterWorker() as b:
            a.configure_peers([a.url, b.url], self_url=a.url)
            backend = a.peer_cache
            # The replica target is the first ring node that is not A --
            # which is B in a two-node ring: exactly where A's keys land
            # if A dies.
            assert backend.peer_for(KEY) == b.url
            backend.store(KEY, _result(cycles=9.0))
            assert backend.flush_writes(timeout_s=10.0)
            assert backend.peer_writes == 1
            payload = _post(b.url + "/cache/batch", {"keys": [KEY]})
            assert list(payload["results"]) == [KEY]
            assert NetworkResult.from_dict(
                payload["results"][KEY]).to_dict() \
                == _result(cycles=9.0).to_dict()

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            PeerCacheBackend(timeout_s=0.0)

    def test_memory_tier_bounds_entries_lru(self):
        backend = PeerCacheBackend(max_memory_entries=2)
        for index in range(3):
            backend.local.store(f"key-{index}" * 8, _result(cycles=index))
        assert len(backend) == 2
        assert backend.local.load("key-0" * 8) is None  # evicted oldest
        assert backend.local.load("key-2" * 8) is not None
        backend.close()

    def test_stats_dict_reports_peer_counters(self):
        backend = PeerCacheBackend(timeout_s=0.7, write_through=False)
        backend.configure(["http://a:1", "http://b:1"],
                          self_url="http://a:1")
        stats = backend.stats_dict()
        assert stats["backend"] == "peer cache"
        assert stats["peers"] == 1
        assert stats["timeout_s"] == 0.7
        assert stats["write_through"] is False
        assert {"peer_hits", "peer_misses", "peer_timeouts",
                "peer_writes", "peer_write_errors"} <= set(stats)
        assert "local" in stats
        backend.close()


class TestBatchWire:
    """One request per peer per batch, in both directions."""

    def test_a_batch_asks_each_peer_once(self):
        with ClusterWorker() as a, ClusterWorker() as b:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0, write_through=False)
            backend.configure([a.url, b.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            workers = {a.url: a, b.url: b}
            stored = {"a" * 64: _result(cycles=1.0),
                      "b" * 64: _result(cycles=2.0)}
            for key, result in stored.items():
                workers[backend.peer_for(key)].core.cache.put(key, result)
            keys = [f"k{index:063x}" for index in range(40)] + list(stored)
            owners = {backend.peer_for(key) for key in keys}
            found = backend.load_many(keys)
            assert {key: result.to_dict() for key, result in found.items()} \
                == {key: result.to_dict() for key, result in stored.items()}
            assert backend.peer_hits == len(stored)
            assert backend.peer_misses == len(keys) - len(stored)

            def batch_requests():
                return sum(worker._requests_total.value(
                    path="/cache/batch", status="200")
                    for worker in workers.values())

            assert batch_requests() == len(owners)
            # The hits were copied locally: asking again costs nothing.
            assert backend.load_many(list(stored)).keys() == stored.keys()
            assert batch_requests() == len(owners)
            backend.close()

    def test_a_cold_key_is_asked_of_its_peer_once(self):
        # The service's uncounted pre-admission peek asks the peer; the
        # executor's counted lookup must not ask again.
        with ClusterWorker() as a, ClusterWorker() as b:
            a.configure_peers([a.url, b.url], self_url=a.url)
            entries = a.core.submit_points(MATRIX)
            assert {entry.status for entry in entries} == {"executed"}
            assert a.peer_cache.peer_misses == len(MATRIX)
            assert a.core.cache.stats.misses == len(MATRIX)

    def test_slow_peer_costs_each_abandoned_key_within_one_budget(self):
        with black_hole() as url:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=0.3)
            backend.configure([url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            keys = [f"k{index:063x}" for index in range(5)]
            started = time.monotonic()
            assert backend.load_many(keys) == {}
            assert time.monotonic() - started < 2.0  # one budget, not five
            assert backend.peer_timeouts == len(keys)  # counted per key
            backend.close()

    def test_write_through_coalesces_into_batches(self):
        with ClusterWorker() as peer:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            keys = [f"k{index:063x}" for index in range(30)]
            for index, key in enumerate(keys):
                backend.store(key, _result(cycles=float(index)))
            assert backend.flush_writes(timeout_s=10.0)
            assert backend.peer_writes == len(keys)
            assert backend.peer_write_errors == 0
            requests = peer._requests_total.value(path="/cache/batch",
                                                  status="200")
            assert 1 <= requests < len(keys)
            answers = _post(peer.url + "/cache/batch", {"keys": keys})
            assert sorted(answers["results"]) == sorted(keys)
            backend.close()

    def test_concurrent_stores_lose_no_replica(self):
        # Storing threads race the I/O loop's drain of the per-peer queue.
        # A store landing just as the drain finds the queue empty must
        # still be sent: a lost update strands a replica, and the flush
        # at the end of the round then times out.
        with ClusterWorker() as peer:
            backend = PeerCacheBackend(self_url="http://nowhere:1",
                                       timeout_s=5.0)
            backend.configure([peer.url, "http://nowhere:1"],
                              self_url="http://nowhere:1")
            keys = [f"k{index:063x}" for index in range(160)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for start in range(0, len(keys), 8):
                    threads = [threading.Thread(
                        target=lambda key=key, delay=index / 2000.0: (
                            time.sleep(delay),
                            backend.store(key, _result())))
                        for index, key in enumerate(keys[start:start + 8])]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert backend.flush_writes(timeout_s=2.0)
            finally:
                sys.setswitchinterval(interval)
            assert backend.peer_writes == len(keys)
            assert backend.peer_write_errors == 0
            answers = _post(peer.url + "/cache/batch", {"keys": keys})
            assert sorted(answers["results"]) == sorted(keys)
            backend.close()

    def test_batches_split_to_fit_the_body_limit(self, monkeypatch):
        from repro.cluster import aio

        # Small enough that 30 replicas (and the 30-key lookup body) need
        # several requests; the peer's parser enforces the same limit, so
        # an unsplit body would be refused with 413.
        monkeypatch.setattr(aio, "MAX_BODY_BYTES", 1024)
        with ClusterWorker() as peer:
            writer = PeerCacheBackend(self_url="http://nowhere:1",
                                      timeout_s=5.0)
            writer.configure([peer.url, "http://nowhere:1"],
                             self_url="http://nowhere:1")
            keys = [f"k{index:063x}" for index in range(30)]
            for index, key in enumerate(keys):
                writer.store(key, _result(cycles=float(index)))
            assert writer.flush_writes(timeout_s=10.0)
            assert writer.peer_write_errors == 0
            assert writer.peer_writes == len(keys)
            assert writer._batch_keys.count(op="replicate") > 1
            reader = PeerCacheBackend(self_url="http://nowhere:1",
                                      timeout_s=5.0, write_through=False)
            reader.configure([peer.url, "http://nowhere:1"],
                             self_url="http://nowhere:1")
            found = reader.load_many(keys)
            assert reader._batch_keys.count(op="lookup") > 1
            assert sorted(found) == sorted(keys)
            for index, key in enumerate(keys):
                assert found[key].to_dict() \
                    == _result(cycles=float(index)).to_dict()
            writer.close()
            reader.close()

    @pytest.mark.parametrize("payload", [
        {},
        {"keys": "k" * 64},
        {"keys": [1, 2]},
        {"keys": [KEY, None]},
    ])
    def test_bad_lookup_batch_answers_400(self, payload):
        with ClusterWorker() as worker:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(worker.url + "/cache/batch", payload)
            excinfo.value.close()
            assert excinfo.value.code == 400

    @pytest.mark.parametrize("entries", [
        None,
        [_record(b"", _FRAME)],
        [_record(b"\xff\xfe" * 32, _FRAME)],
        [_record(KEY.encode(), b"")],
        [_record(KEY.encode(), b"not a frame")],
        [_record(KEY.encode(), _FRAME[:-1])],
        [_record(KEY.encode(), codec.encode([_result(), _result()]))],
        [_record(KEY.encode(), codec.encode([]))],
        [_record(KEY.encode(), _FRAME)[:-1]],
    ])
    def test_bad_replica_batch_answers_400_and_stores_nothing(self, entries):
        # A good record, then a bad one: a zero-length or non-UTF-8 key, a
        # frame that is empty, garbage, truncated or not exactly one
        # result, or a truncated record.  None sends JSON, not a batch.
        good = _record(b"g" * 64, _FRAME)
        body = (json.dumps({"entries": []}).encode() if entries is None
                else codec.BATCH_HEADER + good + b"".join(entries))
        with ClusterWorker() as worker:
            request = urllib.request.Request(
                worker.url + "/cache/batch", data=body, method="PUT",
                headers={"Content-Type": codec.FRAME_CONTENT_TYPE})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            excinfo.value.close()
            assert excinfo.value.code == 400
            assert _post(worker.url + "/cache/batch",
                         {"keys": ["g" * 64]}) == {"results": {}}

    def test_per_key_routes_are_gone(self):
        with ClusterWorker() as worker:
            worker.core.cache.put(KEY, _result())
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(worker.url + f"/cache/{KEY}",
                                       timeout=10.0)
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_batches_are_traced_and_measured(self):
        from repro.obs import Tracer, set_tracer

        tracer = Tracer(service="t")
        previous = set_tracer(tracer)
        try:
            with ClusterWorker() as peer:
                backend = PeerCacheBackend(self_url="http://nowhere:1",
                                           timeout_s=5.0)
                backend.configure([peer.url, "http://nowhere:1"],
                                  self_url="http://nowhere:1")
                keys = [f"k{index:063x}" for index in range(3)]
                assert backend.load_many(keys) == {}
                backend.store(KEY, _result())
                assert backend.flush_writes(timeout_s=10.0)
                backend.close()
        finally:
            set_tracer(previous)
        spans = {span.name: span for span in tracer.recorder.spans()}
        assert spans["peercache.lookup"].attrs == {"peer": peer.url,
                                                   "keys": 3}
        assert spans["peercache.replicate"].attrs == {"peer": peer.url,
                                                      "keys": 1}
        # The peer joined both traces: its handler spans are children.
        handlers = [span for span in tracer.recorder.spans()
                    if span.name.startswith("worker.")]
        assert {span.parent_id for span in handlers} == {
            spans["peercache.lookup"].span_id,
            spans["peercache.replicate"].span_id}
        assert backend._batch_keys.count(op="lookup") == 1
        assert backend._batch_keys.count(op="replicate") == 1

    def test_worker_metrics_page_shows_the_batch_histogram(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            client.submit_points(MATRIX[:2])
            for worker in workers:
                assert worker.peer_cache.flush_writes(timeout_s=30.0)
            text = "".join(worker.metrics.render() for worker in workers)
        assert 'loom_peer_cache_batch_keys_count{op="lookup"}' in text
        assert 'loom_peer_cache_batch_keys_count{op="replicate"}' in text


class TestRingPush:
    def test_coordinator_pushes_membership_at_start(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            for worker in workers:
                assert worker.peer_cache is not None
                assert worker.peer_cache.self_url == worker.url
                assert set(worker.peer_cache.ring.nodes) \
                    == {w.url for w in workers}
                assert coordinator.shards[worker.url].ring_pushed

    def test_no_peer_cache_keeps_workers_shared_nothing(self):
        with peer_cluster(
                n=2, coordinator_kwargs={"peer_cache": False}
        ) as (coordinator, workers, client):
            for worker in workers:
                assert worker.peer_cache is None
                assert not coordinator.shards[worker.url].ring_pushed

    def test_ring_payload_overrides_timeout_and_write_through(self):
        with ClusterWorker() as worker:
            payload = json.dumps({"nodes": [worker.url, "http://other:1"],
                                  "self": worker.url,
                                  "timeout_ms": 250.0,
                                  "write_through": False}).encode("utf-8")
            request = urllib.request.Request(
                worker.url + "/ring", data=payload,
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                answer = json.loads(response.read().decode("utf-8"))
            assert answer == {"ok": True, "peers": 1, "self": worker.url}
            assert worker.peer_cache.timeout_s == pytest.approx(0.25)
            assert worker.peer_cache.write_through is False

    def test_bad_ring_payload_answers_400(self):
        with ClusterWorker() as worker:
            request = urllib.request.Request(
                worker.url + "/ring",
                data=json.dumps({"nodes": []}).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400

    def test_metrics_page_grows_the_peer_cache_series(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            with urllib.request.urlopen(workers[0].url + "/metrics",
                                        timeout=10.0) as response:
                text = response.read().decode("utf-8")
            for series in ("loom_peer_cache_hits_total",
                           "loom_peer_cache_misses_total",
                           "loom_peer_cache_timeouts_total",
                           "loom_peer_cache_fetch_seconds_bucket"):
                assert series in text


class TestFailoverCacheHits:
    def test_dead_shards_keys_answer_from_the_peer_tier(self):
        with peer_cluster(n=2) as (coordinator, workers, client):
            first = client.submit_points(MATRIX)
            assert {entry.status for entry in first} == {"executed"}
            # Let every write-through replica land before the kill.
            for worker in workers:
                assert worker.peer_cache.flush_writes(timeout_s=30.0)
            # The victim owns a MATRIX key whatever ports the OS assigned
            # (all six keys can land on one shard).
            owner = coordinator.ring.node_for(first[0].key)
            victim = next(w for w in workers if w.url == owner)
            victim_keys = [entry.key for entry in first
                           if coordinator.ring.node_for(entry.key)
                           == victim.url]
            assert victim_keys
            survivor = next(w for w in workers if w is not victim)

            def survivor_lookups():
                return survivor._requests_total.value(path="/cache/batch",
                                                      status="200")

            lookups_before = survivor_lookups()
            victim._server.stop(drain_timeout_s=0.0)

            again = client.submit_points(MATRIX)
            # One batched probe for all of the dead shard's keys (the
            # survivor's own peer tier only asks the dead victim).
            assert survivor_lookups() - lookups_before == 1
            assert [entry.key for entry in again] \
                == [entry.key for entry in first]
            # >= 90% of the dead shard's already-simulated keys must come
            # back from the peer tier (status "cached"), not re-simulation.
            by_key = {entry.key: entry for entry in again}
            cached = [key for key in victim_keys
                      if by_key[key].status == "cached"]
            assert len(cached) >= 0.9 * len(victim_keys)
            assert coordinator.stats.peer_cache_answers >= len(cached)
            assert coordinator._peer_cache_hits_total.value() \
                >= len(cached)
            # Bit-identical to the original run, every field of every layer.
            for entry, original in zip(again, first):
                assert compare_layer_results(
                    entry.result.layers, original.result.layers) == []

    def test_peer_timeout_fault_still_completes_bit_identically(self):
        from repro.explore.space import canonical_point, point_to_job

        with peer_cluster(
                n=2, coordinator_kwargs={"peer_cache": False}
        ) as (coordinator, workers, client), black_hole() as hole:
            # Fault injection: every worker's peer tier routes all misses
            # to a black hole (connects, never answers) on a short budget.
            for worker in workers:
                worker.configure_peers([worker.url, hole],
                                       self_url=worker.url,
                                       timeout_s=0.25)
            entries = client.submit_points(MATRIX)
            assert {entry.status for entry in entries} == {"executed"}
            timeouts = sum(worker.peer_cache.peer_timeouts
                           for worker in workers)
            assert timeouts > 0  # the fault was actually exercised
            # Degraded-mode results are bit-identical to in-process runs.
            jobs = [point_to_job(canonical_point(p)) for p in MATRIX]
            with JobExecutor() as executor:
                reference = executor.run(jobs, engine="batched")
            for entry, expected in zip(entries, reference):
                assert compare_layer_results(entry.result.layers,
                                             expected.layers) == []

    def test_stats_surface_the_peer_cache_configuration(self):
        with peer_cluster(
                n=2, coordinator_kwargs={"peer_timeout_s": 0.5}
        ) as (coordinator, workers, client):
            with urllib.request.urlopen(coordinator.url + "/stats",
                                        timeout=10.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["peer_cache"] == {"enabled": True,
                                            "timeout_s": 0.5,
                                            "write_through": True}
            worker_stats = payload["workers"][workers[0].url]
            assert worker_stats["store"]["backend"] == "peer cache"
            assert worker_stats["store"]["peers"] == 1
