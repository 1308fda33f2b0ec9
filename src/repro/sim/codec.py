"""The one result codec: every (de)serialization of simulation results.

Results leave a process in one of two forms, both defined here:

* **Dict form** -- :func:`network_to_dict` / :func:`network_from_dict` (and
  the per-layer pair).  Plain JSON-ready dicts, built field by field rather
  than through ``dataclasses.asdict``; this is the public wire (``/jobs``
  replies, ``--cache-dir`` files, ``explore`` output).  Decoding runs
  :class:`~repro.sim.results.LayerResult`'s own constructor, so its
  validation applies.
* **Binary form** -- a versioned columnar *frame* (:func:`encode` /
  :func:`decode`) for the internal legs: SQLite store rows, the cluster's
  peer-cache wire and the worker-pool shared-memory transport.

Frame layout (little-endian throughout)::

    "LMRF"  u16 version  u16 flags(0)  u32 meta_len  u32 layers
    meta_len bytes of UTF-8 JSON metadata
    zero padding to a multiple of 8 bytes
    8 float64 columns of ``layers`` values each, in LayerResult field order:
      cycles, compute_cycles, memory_cycles, energy_pj, weight_bits_read,
      activation_bits_read, activation_bits_written, utilization
    1 int64 column of ``layers`` MAC counts

The metadata is ``{"results": [[network, accelerator, clock_ghz, layers],
...], "names": [...], "kinds": [...]}`` plus ``"extra": {row: {...}}`` when
some layer carries a non-empty ``extra`` dict.  A frame holds any number of
results (a store row holds one, a worker-pool chunk many) and its length is
fixed by its header, so trailing or missing bytes are refused.

A peer-cache batch (:func:`encode_entries` / :func:`decode_entries`) is a
list of keyed frames: ``"LMRB" u16 version u16 flags(0)`` followed, per
entry, by ``u16 key_len u32 frame_len`` and the key and frame bytes.  A peer
can therefore validate each frame by decoding it and still store the bytes
it received.

Two rules hold for the binary form:

* Decoding enforces ``LayerResult``'s invariants (known ``layer_kind``,
  ``cycles >= 0``, the ``compute_cycles`` default), vectorised over the
  columns, so a frame decodes to exactly what ``LayerResult(**fields)``
  builds -- or raises ``ValueError``.
* Encoding never alters a value: one a frame cannot hold exactly (a MAC
  count outside int64, an int too large for a float64, a non-string name)
  raises ``ValueError``.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import chain, islice
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.sim.results import LayerResult, NetworkResult

__all__ = [
    "VERSION",
    "FRAME_CONTENT_TYPE",
    "layer_to_dict",
    "network_to_dict",
    "network_from_dict",
    "encode",
    "decode",
    "BATCH_HEADER",
    "encode_entry",
    "encode_entries",
    "decode_entries",
]

#: Frame format version; a frame of any other version is refused.
VERSION = 1
#: Content type of a keyed frame batch on the peer-cache wire.
FRAME_CONTENT_TYPE = "application/x-loom-frames"

_MAGIC = b"LMRF"
_BATCH_MAGIC = b"LMRB"
_HEAD = struct.Struct("<4sHHII")
_BATCH_HEAD = struct.Struct("<4sHH")
_ENTRY_HEAD = struct.Struct("<HI")

#: float64 columns per layer, in LayerResult field order.
FLOAT_COLUMNS = (
    "cycles",
    "compute_cycles",
    "memory_cycles",
    "energy_pj",
    "weight_bits_read",
    "activation_bits_read",
    "activation_bits_written",
    "utilization",
)
_COLUMNS = len(FLOAT_COLUMNS) + 1  # plus the int64 MAC column
_row_values = attrgetter(*FLOAT_COLUMNS, "macs")
_name = attrgetter("layer_name")
_kind = attrgetter("layer_kind")
_extra = attrgetter("extra")
_KINDS = frozenset(("conv", "fc", "matmul"))
_EXTRA_TYPES = frozenset((str, int, float, bool, type(None)))
_SWAP = sys.byteorder != "little"


# -- dict form ------------------------------------------------------------------


def layer_to_dict(layer: LayerResult) -> Dict[str, object]:
    """Plain-data form of one layer, keys in dataclass field order."""
    return {
        "layer_name": layer.layer_name,
        "layer_kind": layer.layer_kind,
        "cycles": layer.cycles,
        "compute_cycles": layer.compute_cycles,
        "memory_cycles": layer.memory_cycles,
        "energy_pj": layer.energy_pj,
        "weight_bits_read": layer.weight_bits_read,
        "activation_bits_read": layer.activation_bits_read,
        "activation_bits_written": layer.activation_bits_written,
        "macs": layer.macs,
        "utilization": layer.utilization,
        "extra": dict(layer.extra),
    }


def network_to_dict(result: NetworkResult) -> Dict[str, object]:
    """Plain-data form of one network result (the public JSON shape)."""
    return {
        "network": result.network,
        "accelerator": result.accelerator,
        "clock_ghz": result.clock_ghz,
        "layers": [layer_to_dict(layer) for layer in result.layers],
    }


def network_from_dict(data: Dict[str, object]) -> NetworkResult:
    """Inverse of :func:`network_to_dict`."""
    return NetworkResult(
        network=data["network"],
        accelerator=data["accelerator"],
        clock_ghz=data["clock_ghz"],
        layers=[LayerResult(**layer) for layer in data["layers"]],
    )


# -- binary form: encode --------------------------------------------------------


def _exact_float(value: object, field: str) -> None:
    """Refuse a float-column value a float64 would not hold exactly."""
    if isinstance(value, float):
        return
    if isinstance(value, int) and not isinstance(value, bool) \
            and float(value) == value:
        return
    raise ValueError(f"{field} value {value!r} cannot be held exactly "
                     f"by a float64 column")


def _check_extra(row: int, extra: object) -> None:
    if not isinstance(extra, dict) or not all(
            type(key) is str and type(value) in _EXTRA_TYPES
            for key, value in extra.items()):
        raise ValueError(f"layer {row} extra must map strings to JSON "
                         f"scalars, got {extra!r}")


def encode(results: Sequence[NetworkResult]) -> bytes:
    """Encode ``results`` into one frame (see the module docstring)."""
    headers = []
    names: List[str] = []
    kinds: List[str] = []
    rows = []
    extras: Dict[str, Dict[str, object]] = {}
    for result in results:
        if type(result.network) is not str \
                or type(result.accelerator) is not str:
            raise ValueError("network and accelerator names must be strings")
        clock = result.clock_ghz
        if not isinstance(clock, (int, float)) or isinstance(clock, bool):
            raise ValueError(f"clock_ghz must be a number, got {clock!r}")
        layers = result.layers
        headers.append([result.network, result.accelerator, clock,
                        len(layers)])
        if any(map(_extra, layers)):
            for row, layer in enumerate(layers, len(names)):
                if layer.extra:
                    _check_extra(row, layer.extra)
                    extras[str(row)] = layer.extra
        names.extend(map(_name, layers))
        kinds.extend(map(_kind, layers))
        rows.extend(map(_row_values, layers))
    if not set(map(type, names)) <= {str}:
        raise ValueError("layer names must be strings")
    if not set(kinds) <= _KINDS:
        raise ValueError(f"unknown layer_kind in {sorted(set(kinds) - _KINDS)}")
    columns = list(zip(*rows)) or [()] * _COLUMNS
    float_values = list(chain.from_iterable(columns[:-1]))
    if not set(map(type, float_values)) <= {float}:
        for index, value in enumerate(float_values):
            _exact_float(value, FLOAT_COLUMNS[index // max(1, len(rows))])
    try:
        floats = array("d", float_values)
        macs = array("q", columns[-1])
    except (TypeError, OverflowError) as error:
        raise ValueError(f"result cannot be framed exactly: {error}") from None
    if _SWAP:  # pragma: no cover - big-endian hosts
        floats.byteswap()
        macs.byteswap()
    meta: Dict[str, object] = {"results": headers, "names": names,
                               "kinds": kinds}
    if extras:
        meta["extra"] = extras
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    padding = -(_HEAD.size + len(meta_bytes)) % 8
    return b"".join((
        _HEAD.pack(_MAGIC, VERSION, 0, len(meta_bytes), len(rows)),
        meta_bytes, b"\0" * padding, floats.tobytes(), macs.tobytes(),
    ))


# -- binary form: decode --------------------------------------------------------


def _parse_meta(raw: bytes, layers: int):
    try:
        meta = json.loads(raw.decode("utf-8"))
        headers, names, kinds = meta["results"], meta["names"], meta["kinds"]
        extras = meta.get("extra", {})
    except (ValueError, KeyError, TypeError, RecursionError):
        raise ValueError("frame metadata is not valid JSON") from None
    if not (isinstance(headers, list) and isinstance(names, list)
            and isinstance(kinds, list) and isinstance(extras, dict)):
        raise ValueError("frame metadata has the wrong shape")
    if len(names) != layers or len(kinds) != layers:
        raise ValueError("frame metadata disagrees with its layer count")
    if not set(map(type, names)) | set(map(type, kinds)) <= {str}:
        raise ValueError("frame layer names and kinds must be strings")
    if not set(kinds) <= _KINDS:
        raise ValueError(f"layer_kind must be 'conv', 'fc' or 'matmul', "
                         f"got {sorted(map(repr, set(kinds) - _KINDS))}")
    total = 0
    for header in headers:
        if not (isinstance(header, list) and len(header) == 4
                and type(header[0]) is str and type(header[1]) is str
                and type(header[2]) in (int, float)
                and type(header[3]) is int and header[3] >= 0):
            raise ValueError(f"bad frame result header {header!r}")
        total += header[3]
    if total != layers:
        raise ValueError("frame result headers disagree with its layer count")
    parsed_extras: Dict[int, Dict[str, object]] = {}
    for row, extra in extras.items():
        if not (row.isdigit() and int(row) < layers and extra):
            raise ValueError(f"bad frame extra row {row!r}")
        _check_extra(int(row), extra)
        parsed_extras[int(row)] = extra
    return headers, names, kinds, parsed_extras


def decode(data: bytes) -> List[NetworkResult]:
    """Decode one frame into fresh results; ``ValueError`` if refused."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError(f"a frame is bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < _HEAD.size:
        raise ValueError("truncated frame header")
    magic, version, flags, meta_len, layers = _HEAD.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a result frame (bad magic)")
    if version != VERSION or flags:
        raise ValueError(f"unsupported result frame version {version}")
    start = _HEAD.size + meta_len
    offset = start + (-start % 8)
    if len(data) != offset + 8 * _COLUMNS * layers:
        raise ValueError("frame length disagrees with its header")
    headers, names, kinds, extras = _parse_meta(data[_HEAD.size:start], layers)
    floats = np.frombuffer(data, dtype="<f8", count=8 * layers,
                           offset=offset).reshape(8, layers)
    if (floats[0] < 0).any():
        raise ValueError("cycles must be >= 0")
    # The constructor's default: no split given means all compute.
    split = floats[1:3].any(axis=0)
    if not split.all():
        floats = floats.copy()
        floats[1][~split] = floats[0][~split]
    (cycles, compute, memory, energy, weights, act_in, act_out,
     utilization) = floats.tolist()
    macs = np.frombuffer(data, dtype="<i8", count=layers,
                         offset=offset + 64 * layers).tolist()
    layer_new = LayerResult.__new__
    network_new = NetworkResult.__new__
    flat: List[LayerResult] = []
    rows = zip(names, kinds, cycles, compute, memory, energy, weights,
               act_in, act_out, macs, utilization)
    results: List[NetworkResult] = []
    for network, accelerator, clock, count in headers:
        layers_out: List[LayerResult] = []
        append = layers_out.append
        for (name, kind, row_cycles, row_compute, row_memory, row_energy,
             row_weights, row_act_in, row_act_out, row_macs,
             row_utilization) in islice(rows, count):
            layer = layer_new(LayerResult)
            layer.__dict__ = {
                "layer_name": name,
                "layer_kind": kind,
                "cycles": row_cycles,
                "compute_cycles": row_compute,
                "memory_cycles": row_memory,
                "energy_pj": row_energy,
                "weight_bits_read": row_weights,
                "activation_bits_read": row_act_in,
                "activation_bits_written": row_act_out,
                "macs": row_macs,
                "utilization": row_utilization,
                "extra": {},
            }
            append(layer)
        flat.extend(layers_out)
        result = network_new(NetworkResult)
        result.__dict__ = {
            "network": network,
            "accelerator": accelerator,
            "layers": layers_out,
            "clock_ghz": clock,
        }
        results.append(result)
    for row, extra in extras.items():
        flat[row].extra.update(extra)
    return results


# -- keyed frame batches (the peer-cache wire) --------------------------------------


def encode_entry(key: str, frame: bytes) -> bytes:
    """One keyed record of a batch (see :func:`encode_entries`)."""
    raw_key = key.encode("utf-8")
    if not raw_key or len(raw_key) > 0xFFFF:
        raise ValueError("a batch key must be 1..65535 bytes")
    return _ENTRY_HEAD.pack(len(raw_key), len(frame)) + raw_key + frame


#: The fixed prefix of every batch; records follow it back to back.
BATCH_HEADER = _BATCH_HEAD.pack(_BATCH_MAGIC, VERSION, 0)


def encode_entries(entries: Iterable[Tuple[str, bytes]]) -> bytes:
    """A batch of ``(key, frame)`` records."""
    return BATCH_HEADER + b"".join(encode_entry(key, frame)
                                   for key, frame in entries)


def decode_entries(data: bytes) -> List[Tuple[str, bytes]]:
    """Split a batch into ``(key, frame)`` pairs; frames are not decoded.

    Raises ``ValueError`` on a wrong magic or version or on a truncated
    record.
    """
    data = bytes(data)
    if len(data) < _BATCH_HEAD.size:
        raise ValueError("truncated frame batch header")
    magic, version, flags = _BATCH_HEAD.unpack_from(data)
    if magic != _BATCH_MAGIC:
        raise ValueError("not a frame batch (bad magic)")
    if version != VERSION or flags:
        raise ValueError(f"unsupported frame batch version {version}")
    entries = []
    offset = _BATCH_HEAD.size
    while offset < len(data):
        if offset + _ENTRY_HEAD.size > len(data):
            raise ValueError("truncated frame batch record")
        key_len, frame_len = _ENTRY_HEAD.unpack_from(data, offset)
        offset += _ENTRY_HEAD.size
        end = offset + key_len + frame_len
        if not key_len or end > len(data):
            raise ValueError("truncated frame batch record")
        try:
            key = data[offset:offset + key_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError("frame batch key is not UTF-8") from None
        entries.append((key, data[offset + key_len:end]))
        offset = end
    return entries
