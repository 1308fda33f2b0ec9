"""Tests for the one result codec (repro.sim.codec) and the legs it serves.

* dict form: byte-identical to the ``dataclasses.asdict`` output it
  replaced, on every zoo network x design;
* binary frames: Hypothesis round trips (random layers, non-empty
  ``extra``, empty networks, infinities and NaN) that decode to what
  ``LayerResult(**fields)`` builds and re-encode to identical bytes;
* refused frames: truncated, wrong magic or version, unknown
  ``layer_kind``, negative cycles, values a frame cannot hold exactly;
* the legs: a corrupted SQLite BLOB row is a counted, deleted miss, and a
  malformed replica frame gets 400 from ``PUT /cache/batch`` and stores
  nothing.
"""

import dataclasses
import json
import math
import struct
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterWorker
from repro.explore import point_to_job
from repro.nn.zoo import available_networks
from repro.serve.core import ServiceCore
from repro.serve.store import SQLiteResultStore
from repro.sim import codec
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs import JobExecutor, ResultCache
from repro.sim.jobs.spec import ACCELERATOR_KINDS
from repro.sim.results import LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

KEY = "k" * 64


def _result(cycles=100.0, kind="conv", macs=10, **extra):
    result = NetworkResult(network="netA", accelerator="AccX", clock_ghz=1.0)
    result.add(LayerResult(layer_name="conv1", layer_kind=kind, cycles=cycles,
                           energy_pj=5.5, macs=macs, extra=dict(extra)))
    result.add(LayerResult(layer_name="fc1", layer_kind="fc", cycles=7.0,
                           compute_cycles=3.0, memory_cycles=7.0, macs=4))
    return result


def _asdict_form(result):
    """What ``NetworkResult.to_dict`` returned before the codec."""
    return {"network": result.network, "accelerator": result.accelerator,
            "clock_ghz": result.clock_ghz,
            "layers": [dataclasses.asdict(layer) for layer in result.layers]}


def _assert_same(decoded, original):
    assert len(decoded) == len(original)
    for got, want in zip(decoded, original):
        assert (got.network, got.accelerator, got.clock_ghz) == \
            (want.network, want.accelerator, want.clock_ghz)
        assert compare_layer_results(got.layers, want.layers) == []


# -- dict form ------------------------------------------------------------------


class TestDictForm:
    def test_to_dict_matches_asdict_on_every_zoo_network_and_design(self):
        jobs = [point_to_job({"network": network, "accelerator": kind})
                for network in available_networks()
                for kind in sorted(ACCELERATOR_KINDS)]
        for result in simulate_jobs_batched(jobs):
            assert json.dumps(result.to_dict()) == \
                json.dumps(_asdict_form(result))

    def test_extra_is_copied_not_shared(self):
        result = _result(note=1.5)
        data = result.to_dict()
        assert data == _asdict_form(result)
        data["layers"][0]["extra"]["note"] = 9.0
        assert result.layers[0].extra == {"note": 1.5}

    def test_from_dict_runs_layer_validation(self):
        data = _result().to_dict()
        data["layers"][0]["layer_kind"] = "pool"
        with pytest.raises(ValueError, match="layer_kind"):
            NetworkResult.from_dict(data)
        data = _result().to_dict()
        data["layers"][0]["cycles"] = -1.0
        with pytest.raises(ValueError, match="cycles"):
            NetworkResult.from_dict(data)


# -- binary frames: round trips ---------------------------------------------------

_FLOATS = st.floats(allow_nan=False)  # infinities included
_EXTRA = st.dictionaries(st.text(max_size=8), _FLOATS | st.integers(),
                         max_size=3)


@st.composite
def _layers(draw):
    return LayerResult(
        layer_name=draw(st.text(max_size=12)),
        layer_kind=draw(st.sampled_from(("conv", "fc", "matmul"))),
        cycles=draw(st.floats(min_value=0.0, allow_nan=False)),
        compute_cycles=draw(_FLOATS),
        memory_cycles=draw(_FLOATS),
        energy_pj=draw(_FLOATS),
        weight_bits_read=draw(_FLOATS),
        activation_bits_read=draw(_FLOATS),
        activation_bits_written=draw(_FLOATS),
        macs=draw(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)),
        utilization=draw(_FLOATS),
        extra=draw(_EXTRA),
    )


_NETWORKS = st.builds(
    NetworkResult,
    network=st.text(max_size=12),
    accelerator=st.text(max_size=12),
    layers=st.lists(_layers(), max_size=5),
    clock_ghz=_FLOATS | st.integers(min_value=-2 ** 40, max_value=2 ** 40),
)


class TestFrameRoundTrip:
    @given(st.lists(_NETWORKS, max_size=4))
    def test_round_trip_is_exact_and_stable(self, results):
        frame = codec.encode(results)
        decoded = codec.decode(frame)
        _assert_same(decoded, results)
        for got, want in zip(decoded, results):
            assert [layer.extra for layer in got.layers] == \
                [layer.extra for layer in want.layers]
        assert codec.encode(decoded) == frame

    def test_empty_networks_and_empty_frames(self):
        empty = NetworkResult(network="n", accelerator="a", clock_ghz=2.0)
        for results in ([], [empty], [empty, _result(), empty]):
            decoded = codec.decode(codec.encode(results))
            _assert_same(decoded, results)

    def test_nan_and_infinities_keep_their_bits(self):
        result = _result()
        layer = result.layers[0]
        layer.energy_pj = math.nan
        layer.utilization = -math.inf
        layer.cycles = math.inf
        frame = codec.encode([result])
        (decoded,) = codec.decode(frame)
        assert math.isnan(decoded.layers[0].energy_pj)
        assert decoded.layers[0].utilization == -math.inf
        assert decoded.layers[0].cycles == math.inf
        assert codec.encode([decoded]) == frame

    def test_decoding_applies_the_compute_cycles_default(self):
        # A frame written without a compute/memory split decodes to what
        # the constructor would build from the same fields.
        result = _result()
        result.layers[0].compute_cycles = 0.0  # bypasses __post_init__
        (decoded,) = codec.decode(codec.encode([result]))
        assert decoded.layers[0] == LayerResult(
            **{**dataclasses.asdict(result.layers[0]),
               "compute_cycles": 0.0})
        assert decoded.layers[0].compute_cycles == result.layers[0].cycles

    def test_int_columns_that_fit_are_held_exactly(self):
        result = _result(cycles=12)
        (decoded,) = codec.decode(codec.encode([result]))
        assert decoded.layers[0].cycles == 12.0


# -- binary frames: refusals --------------------------------------------------------


def _patched(frame, old, new):
    assert len(old) == len(new) and frame.count(old) == 1
    return frame.replace(old, new)


class TestRefusedFrames:
    def test_every_truncation_is_refused(self):
        frame = codec.encode([_result()])
        for cut in range(len(frame)):
            with pytest.raises(ValueError):
                codec.decode(frame[:cut])

    def test_trailing_bytes_are_refused(self):
        with pytest.raises(ValueError, match="length"):
            codec.decode(codec.encode([_result()]) + b"\0" * 8)

    def test_wrong_magic_is_refused(self):
        frame = codec.encode([_result()])
        with pytest.raises(ValueError, match="magic"):
            codec.decode(b"JSON" + frame[4:])

    def test_wrong_version_is_refused(self):
        frame = codec.encode([_result()])
        bumped = frame[:4] + struct.pack("<H", codec.VERSION + 1) + frame[6:]
        with pytest.raises(ValueError, match="version"):
            codec.decode(bumped)

    def test_unknown_layer_kind_is_refused(self):
        frame = codec.encode([_result()])
        with pytest.raises(ValueError, match="layer_kind"):
            codec.decode(_patched(frame, b'"conv"', b'"pool"'))

    def test_negative_cycles_are_refused(self):
        # The cycles column comes first; its value repeats in the
        # compute_cycles column (the constructor default), left alone.
        frame = codec.encode([_result(cycles=100.0)])
        negative = frame.replace(struct.pack("<d", 100.0),
                                 struct.pack("<d", -1.0), 1)
        with pytest.raises(ValueError, match="cycles"):
            codec.decode(negative)

    def test_layer_counts_must_agree(self):
        frame = codec.encode([_result()])
        with pytest.raises(ValueError):
            codec.decode(_patched(frame, b',2]]', b',3]]'))

    @pytest.mark.parametrize("meta", [
        b'{"results":[["n","a",1.0,1]],"names":["x"],"kinds":[["conv"]]}',
        b'{"results":[["n","a",1.0,1]],"names":["x"],"kinds":["conv"],'
        b'"extra":{"0":[1]}}',
        b'[' * 100000,
    ], ids=["unhashable-kind", "bad-extra", "deep-nesting"])
    def test_malformed_metadata_is_refused(self, meta):
        padding = -(16 + len(meta)) % 8
        frame = (struct.pack("<4sHHII", b"LMRF", codec.VERSION, 0,
                             len(meta), 1)
                 + meta + b"\0" * padding + b"\0" * 72)
        with pytest.raises(ValueError):
            codec.decode(frame)

    def test_non_bytes_are_refused(self):
        with pytest.raises(ValueError):
            codec.decode('{"network": "n"}')

    @pytest.mark.parametrize("field,value", [
        ("macs", 2 ** 63),
        ("macs", -2 ** 63 - 1),
        ("macs", 1.0),
        ("cycles", 2 ** 53 + 1),
        ("energy_pj", "5"),
        ("layer_name", 7),
        ("extra", {"nested": [1, 2]}),
        ("extra", {1: 1.0}),
    ])
    def test_values_a_frame_cannot_hold_exactly_raise(self, field, value):
        result = _result()
        setattr(result.layers[0], field, value)
        with pytest.raises(ValueError):
            codec.encode([result])


class TestFrameBatches:
    def test_round_trip(self):
        frames = [(KEY, codec.encode([_result()])),
                  ("k2", codec.encode([_result(cycles=3.0)]))]
        assert codec.decode_entries(codec.encode_entries(frames)) == frames
        assert codec.decode_entries(codec.encode_entries([])) == []

    def test_truncated_or_foreign_batches_are_refused(self):
        body = codec.encode_entries([(KEY, codec.encode([_result()]))])
        for cut in range(len(body)):
            if cut == len(codec.BATCH_HEADER):
                continue  # a bare header is a valid empty batch
            with pytest.raises(ValueError):
                codec.decode_entries(body[:cut])
        with pytest.raises(ValueError, match="magic"):
            codec.decode_entries(b'{"entries": []}')


# -- the legs ----------------------------------------------------------------------


class TestStoreRows:
    def test_rows_are_frames(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store(KEY, _result())
        (row_format, blob) = store._conn.execute(
            "SELECT format, result FROM results").fetchone()
        assert row_format == codec.VERSION
        assert blob == codec.encode([_result()])
        store.close()

    def test_corrupted_blob_row_is_a_counted_deleted_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db")
        store.store(KEY, _result())
        store.store("good" * 16, _result(cycles=1.0))
        frame = codec.encode([_result()])
        store._conn.execute("UPDATE results SET result = ? WHERE key = ?",
                            (frame[:-3], KEY))
        store._conn.commit()
        found = store.load_many([KEY, "good" * 16])
        assert list(found) == ["good" * 16]
        assert store.invalid_entries == 1
        assert not store.contains(KEY)
        assert store.load(KEY) is None
        assert store.invalid_entries == 1  # deleted, so counted once
        store.close()

    def test_store_many_writes_a_batch_and_evicts_once(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "cache.db", max_entries=3)
        store.store_many([(f"key{index}", _result(cycles=float(index)), None)
                          for index in range(5)])
        assert len(store) == 3
        assert store.evictions == 2
        assert [store.load(f"key{index}").layers[0].cycles
                for index in (2, 3, 4)] == [2.0, 3.0, 4.0]
        store.close()


def _put(url, body):
    request = urllib.request.Request(
        url + "/cache/batch", data=body, method="PUT",
        headers={"Content-Type": codec.FRAME_CONTENT_TYPE})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _lookup(url, keys):
    request = urllib.request.Request(
        url + "/cache/batch", data=json.dumps({"keys": keys}).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        assert response.headers["Content-Type"] == codec.FRAME_CONTENT_TYPE
        return dict(codec.decode_entries(response.read()))


class TestReplicaWire:
    def test_replica_frames_are_stored_as_received(self, tmp_path):
        frame = codec.encode([_result()])
        store = SQLiteResultStore(tmp_path / "cache.db")
        core = ServiceCore(executor=JobExecutor(
            cache=ResultCache(backend=store)))
        with ClusterWorker(core=core) as worker:
            assert _put(worker.url, codec.encode_entries([(KEY, frame)])) \
                == {"ok": True, "stored": 1}
            assert _lookup(worker.url, [KEY, "absent"]) == {KEY: frame}
        (blob,) = SQLiteResultStore(tmp_path / "cache.db")._conn.execute(
            "SELECT result FROM results").fetchone()
        assert blob == frame

    @pytest.mark.parametrize("bad", [
        lambda frame: frame[:-1],
        lambda frame: b"XXXX" + frame[4:],
        lambda frame: frame[:4] + struct.pack("<H", 99) + frame[6:],
        lambda frame: codec.encode([_result(), _result()]),
    ], ids=["truncated", "magic", "version", "two-results"])
    def test_malformed_replica_frame_gets_400_and_stores_nothing(self, bad):
        good = ("g" * 64, codec.encode([_result()]))
        body = codec.encode_entries([good, (KEY, bad(good[1]))])
        with ClusterWorker() as worker:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _put(worker.url, body)
            excinfo.value.close()
            assert excinfo.value.code == 400
            assert _lookup(worker.url, ["g" * 64, KEY]) == {}
