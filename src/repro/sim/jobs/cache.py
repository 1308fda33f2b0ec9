"""Content-keyed result cache for simulation jobs.

The cache maps a :func:`~repro.sim.jobs.spec.job_key` content hash to the
:class:`~repro.sim.results.NetworkResult` the job produced.  Lookups go
through an in-memory dict first; an optional persistent :class:`CacheBackend`
makes results survive across processes and invocations, which is what lets a
repeated ``loom-repro all`` -- or a long-running ``loom-repro serve`` process
-- skip every simulation it has already done.

Two backends ship with the repository:

* :class:`JsonDirBackend` (this module) -- one JSON file per key under a
  directory; what ``loom-repro --cache-dir`` installs.  Entries are written
  atomically (tmp file + rename) and validated on load; an unreadable,
  truncated or mismatched entry is counted in ``stats.invalid_disk_entries``
  and treated as a miss rather than crashing the run.
* :class:`repro.serve.store.SQLiteResultStore` -- a single SQLite database in
  WAL mode, safe for concurrent readers and multiple client processes, with
  schema versioning and an optional LRU entry bound; what the
  ``loom-repro serve`` service uses.

The in-memory layer can itself be bounded (``max_memory_entries``): entries
beyond the bound are evicted least-recently-used and counted in
``stats.evictions``.  The default is unbounded, which is right for one-shot
CLI runs; long-running processes (the service) set a bound so the dict cannot
grow without limit.  All ``ResultCache`` operations are thread-safe.

Cached results are shared objects: treat them as read-only.
"""

from __future__ import annotations

import abc
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.sim.results import NetworkResult

__all__ = ["CacheBackend", "CacheStats", "JsonDirBackend", "ResultCache",
           "Spec"]

#: Persistent entry schema version; bump when the payload layout changes.
_FORMAT = 1

#: A job's audit spec: :func:`~repro.sim.jobs.spec.spec_json` text (what the
#: executor passes: the text its content key was hashed from) or the
#: equivalent dict.
Spec = Union[str, dict, None]


@dataclass
class CacheStats:
    """Counters describing what the cache did for a run.

    ``disk_hits`` counts lookups answered by the persistent backend
    (whatever its storage medium); ``invalid_disk_entries`` counts backend
    entries that were unreadable or mismatched and therefore treated as
    misses; ``evictions`` counts in-memory entries dropped by the
    ``max_memory_entries`` LRU bound.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid_disk_entries: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> Dict[str, int]:
        """Plain-data form (what ``loom-repro serve`` reports on /stats)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid_disk_entries": self.invalid_disk_entries,
            "evictions": self.evictions,
        }


class CacheBackend(abc.ABC):
    """Persistent key -> :class:`NetworkResult` store behind a ResultCache.

    Implementations must be tolerant of damaged storage: :meth:`load` returns
    ``None`` for entries that are missing *or* unreadable (counting the
    latter in ``invalid_entries``) and never raises for bad data -- a cache
    entry is always recomputable, so corruption is a miss, not an error.
    Implementations must also be safe to call from multiple threads.
    """

    #: Display name used in executor summaries (e.g. ``"disk cache"``).
    name: str = "backend"

    #: Whether :meth:`store` wants the audit ``spec`` (the job's canonical
    #: spec JSON text).  Executors skip it for backends that discard it.
    keeps_spec: bool = True

    def __init__(self) -> None:
        #: Entries that were present but unreadable/mismatched on load.
        self.invalid_entries = 0

    @abc.abstractmethod
    def load(self, key: str) -> Optional[NetworkResult]:
        """Return the stored result for ``key``, or ``None`` if absent/bad."""

    def load_many(self, keys: Iterable[str]) -> Dict[str, NetworkResult]:
        """Load several keys at once; the returned dict holds only the hits.

        The default asks :meth:`load` key by key.  Backends whose lookups
        cost a round trip each (the cluster's peer tier) override it to
        answer the whole set in one.
        """
        found: Dict[str, NetworkResult] = {}
        for key in keys:
            result = self.load(key)
            if result is not None:
                found[key] = result
        return found

    @abc.abstractmethod
    def store(self, key: str, result: NetworkResult,
              spec: Spec = None) -> None:
        """Persist ``result`` under ``key`` (``spec`` kept for audit)."""

    def store_many(self, entries: Sequence[
            Tuple[str, NetworkResult, Spec]]) -> None:
        """Persist several ``(key, result, spec)`` entries at once.

        The default stores them one by one; the SQLite store commits the
        whole batch in one transaction.
        """
        for key, result, spec in entries:
            self.store(key, result, spec)

    def store_encoded(self, entries: Sequence[
            Tuple[str, NetworkResult, bytes, Spec]]) -> None:
        """Persist ``(key, result, frame, spec)`` entries whose one-result
        :mod:`repro.sim.codec` frame the caller already holds.

        The default ignores the frames and calls :meth:`store_many`; the
        SQLite store keeps the frames as given instead of encoding again.
        """
        self.store_many([(key, result, spec)
                         for key, result, _, spec in entries])

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` exists (without loading it)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of persisted entries."""

    def close(self) -> None:
        """Release any held resources (connections, handles)."""

    def describe(self) -> str:
        return self.name


class JsonDirBackend(CacheBackend):
    """One JSON file per key under ``directory`` (the ``--cache-dir`` store)."""

    name = "disk cache"

    def __init__(self, directory: os.PathLike) -> None:
        super().__init__()
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[NetworkResult]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("format") != _FORMAT or payload.get("key") != key:
                raise ValueError("cache entry format/key mismatch")
            return NetworkResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted / stale entry: ignore it, recompute, overwrite.
            self.invalid_entries += 1
            return None

    def store(self, key: str, result: NetworkResult,
              spec: Spec = None) -> None:
        payload = {
            "format": _FORMAT,
            "key": key,
            "spec": json.loads(spec) if isinstance(spec, str) else spec,
            "result": result.to_dict(),
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self._path(key))
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


class ResultCache:
    """In-memory (plus optional persistent-backend) store of results by key.

    Parameters
    ----------
    directory:
        Convenience shorthand for ``backend=JsonDirBackend(directory)``
        (the historical constructor signature; exclusive with ``backend``).
    backend:
        Optional persistent :class:`CacheBackend` behind the memory layer.
    max_memory_entries:
        Optional LRU bound on the in-memory dict.  ``None`` (the default)
        keeps every result for the life of the process -- fine for one-shot
        CLI invocations, unbounded growth for long-running services, which
        is why ``loom-repro serve`` always sets a bound.  Evicted entries
        are counted in ``stats.evictions`` and, when a backend is attached,
        remain loadable from it.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 backend: Optional[CacheBackend] = None,
                 max_memory_entries: Optional[int] = None) -> None:
        if directory is not None and backend is not None:
            raise ValueError("pass either directory or backend, not both")
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1 (or None for unbounded), "
                f"got {max_memory_entries}"
            )
        self.backend = (JsonDirBackend(directory) if directory is not None
                        else backend)
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, NetworkResult]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    @property
    def directory(self) -> Optional[Path]:
        """The JSON store directory, if the backend is directory-based."""
        return getattr(self.backend, "directory", None)

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> Optional[NetworkResult]:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        return self.get_many((key,)).get(key)

    def peek(self, key: str) -> Optional[NetworkResult]:
        """Like :meth:`get`, but a miss is not counted in the statistics.

        For probe-style lookups (result lookups by key) that are followed
        by an authoritative :meth:`get` -- or by nothing at all -- so
        hit-rate statistics stay meaningful.
        """
        return self.get_many((key,), count_misses=False).get(key)

    def peek_memory(self, key: str) -> Optional[NetworkResult]:
        """Memory-layer-only :meth:`peek`: never touches the backend.

        For callers that must not trigger backend I/O -- in particular the
        cluster worker's ``POST /cache/batch`` peer endpoint, where a
        backend that is itself peer-aware would otherwise recurse into
        another network lookup.  Not counted in the statistics.
        """
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
            return result

    def get_many(self, keys: Iterable[str], count_misses: bool = True,
                 memory_only: Iterable[str] = ()) -> Dict[str, NetworkResult]:
        """Look several keys up at once; the returned dict holds the hits.

        Memory misses go to the backend in one :meth:`CacheBackend.load_many`
        call, so a peer-aware backend asks each peer once for the whole
        set.  ``count_misses=False`` is the batch form of :meth:`peek` (the
        service's pre-admission pass).  Keys in ``memory_only`` are ones
        the caller has just missed in the backend (that pass's misses):
        only the memory layer is checked for them again, so a cold key
        costs one backend lookup, not two.  Duplicate keys count once.
        """
        found: Dict[str, NetworkResult] = {}
        missing = []
        skipped = 0
        memory_only = set(memory_only)
        with self._lock:
            for key in dict.fromkeys(keys):
                result = self._memory.get(key)
                if result is None:
                    if key in memory_only:
                        skipped += 1
                    else:
                        missing.append(key)
                    continue
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                found[key] = result
            if count_misses:
                self.stats.misses += skipped
        if not missing:
            return found
        # Backend I/O runs outside the cache-wide lock (the backend carries
        # its own), so warm memory hits never serialise behind another
        # thread's disk/SQLite/peer access.  Concurrent same-key loads are
        # idempotent: both threads remember the same stored result.
        loaded = (self.backend.load_many(missing)
                  if self.backend is not None else {})
        with self._lock:
            if self.backend is not None:
                self.stats.invalid_disk_entries = self.backend.invalid_entries
            for key, result in loaded.items():
                self._remember(key, result)
            self.stats.disk_hits += len(loaded)
            if count_misses:
                self.stats.misses += len(missing) - len(loaded)
        found.update(loaded)
        return found

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.backend is not None and self.backend.contains(key)

    def __len__(self) -> int:
        return len(self._memory)

    # -- store ---------------------------------------------------------------

    def put(self, key: str, result: NetworkResult,
            spec: Spec = None) -> None:
        """Store ``result`` under ``key``; ``spec`` is kept on disk for audit."""
        self.put_many([(key, result, spec)])

    def put_many(self, entries: Sequence[
            Tuple[str, NetworkResult, Spec]]) -> None:
        """Store several ``(key, result, spec)`` entries; the backend gets
        them in one :meth:`CacheBackend.store_many` call."""
        with self._lock:
            for key, result, _ in entries:
                self._remember(key, result)
            self.stats.stores += len(entries)
        if self.backend is not None and entries:
            # Outside the lock: persisting must not block memory lookups.
            self.backend.store_many(entries)

    def _remember(self, key: str, result: NetworkResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        if self.max_memory_entries is not None:
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory entries (persistent entries are left alone)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Close the persistent backend, if any."""
        if self.backend is not None:
            self.backend.close()
