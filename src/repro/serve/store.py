"""SQLite-backed simulation result store (a :class:`CacheBackend`).

The ``--cache-dir`` JSON store is fine for one process at a time, but the
service needs a result store that many threads *and* many client processes
can share safely.  :class:`SQLiteResultStore` keeps every result in one
SQLite database:

* **WAL mode** -- readers never block the (single) writer and vice versa, so
  a warm ``loom-repro serve`` process can answer lookups while a store is in
  flight, and several CLI invocations pointed at the same database
  (``--store``) coexist without corrupting each other.
* **Schema versioning** -- the database records its schema version in
  ``PRAGMA user_version``; opening a store written by an incompatible
  version wipes and recreates it (cache entries are always recomputable, so
  a version bump costs re-simulation, never an error).  A database file that
  is not SQLite at all is likewise replaced.
* **LRU size bound** -- an optional ``max_entries`` cap: stores beyond the
  bound evict the least-recently-*used* entries (loads refresh recency), so
  a long-running service's store converges on its hot set instead of growing
  forever.

Each row holds its result as a BLOB: one binary frame of
:mod:`repro.sim.codec`, whose version the row's ``format`` column repeats.
A row whose frame does not decode, or whose format is not the codec's, is
deleted, counted in ``invalid_entries`` and treated as a miss.  A batch of
stores (:meth:`~SQLiteResultStore.store_many`) commits in one transaction
with one LRU eviction pass.

All operations are serialised behind one internal lock (SQLite connections
are not thread-safe by themselves); cross-process serialisation is SQLite's
own locking with a generous busy timeout.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.sim import codec
from repro.sim.jobs.cache import CacheBackend, Spec
from repro.sim.results import NetworkResult

__all__ = ["SQLiteResultStore", "SCHEMA_VERSION"]

#: Database schema version (``PRAGMA user_version``); bump on layout changes.
#: Version 2 stores results as codec frames (BLOB) instead of JSON text.
SCHEMA_VERSION = 2

#: Keys per ``WHERE key IN (...)`` statement (below SQLite's variable limit).
_KEYS_PER_QUERY = 500

_CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    format       INTEGER NOT NULL,
    spec         TEXT,
    result       BLOB NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
)
"""

_CREATE_LRU_INDEX = """
CREATE INDEX IF NOT EXISTS results_last_used ON results (last_used_at)
"""


class SQLiteResultStore(CacheBackend):
    """Concurrent-access persistent result store in one SQLite database."""

    name = "sqlite store"

    def __init__(self, path: os.PathLike,
                 max_entries: Optional[int] = None,
                 timeout_s: float = 30.0) -> None:
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 (or None for unbounded), "
                f"got {max_entries}"
            )
        self.path = Path(path).expanduser()
        self.max_entries = max_entries
        self.timeout_s = timeout_s
        #: Times the store was wiped for a schema/file-format mismatch.
        self.schema_resets = 0
        #: LRU evictions performed by the ``max_entries`` bound.
        self.evictions = 0
        self._lock = threading.RLock()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()

    # -- connection / schema -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=self.timeout_s,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        # The connect timeout only guards the initial open; busy_timeout
        # makes every later statement wait out a cross-process writer lock
        # instead of failing with "database is locked" -- with one store
        # per cluster shard plus CLI invocations sharing it, brief write
        # overlap is normal operation, not an error.
        conn.execute(f"PRAGMA busy_timeout = {int(self.timeout_s * 1000)}")
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = None
        try:
            conn = self._connect()
            self._ensure_schema(conn)
            return conn
        except sqlite3.OperationalError:
            # Transient ("database is locked", disk I/O, unopenable path):
            # NEVER treat as corruption -- another process may be using a
            # perfectly valid store.  Surface the error to the caller.
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            raise
        except sqlite3.DatabaseError:
            # Genuinely not a SQLite database (bad header, malformed image):
            # a cache is always recomputable, so replace the file.
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            self.schema_resets += 1
            self.path.unlink(missing_ok=True)
            conn = self._connect()
            self._ensure_schema(conn)
            return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if version not in (0, SCHEMA_VERSION):
            # Written by an incompatible schema: wipe and recreate.
            self.schema_resets += 1
            conn.execute("DROP TABLE IF EXISTS results")
        with conn:
            conn.execute(_CREATE_RESULTS)
            conn.execute(_CREATE_LRU_INDEX)
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    # -- CacheBackend protocol -----------------------------------------------

    def load(self, key: str) -> Optional[NetworkResult]:
        return self.load_many((key,)).get(key)

    def load_many(self, keys: Iterable[str]) -> Dict[str, NetworkResult]:
        keys = list(dict.fromkeys(keys))
        found: Dict[str, NetworkResult] = {}
        damaged = []
        with self._lock:
            for start in range(0, len(keys), _KEYS_PER_QUERY):
                chunk = keys[start:start + _KEYS_PER_QUERY]
                rows = self._conn.execute(
                    "SELECT key, format, result FROM results WHERE key IN "
                    f"({','.join('?' * len(chunk))})", chunk).fetchall()
                for key, row_format, frame in rows:
                    try:
                        if row_format != codec.VERSION:
                            raise ValueError("row format mismatch")
                        (found[key],) = codec.decode(frame)
                    except ValueError:
                        damaged.append(key)
            if not found and not damaged:
                return found
            with self._conn:
                if damaged:
                    # Damaged rows: drop them, count them, recompute upstream.
                    self.invalid_entries += len(damaged)
                    self._conn.executemany(
                        "DELETE FROM results WHERE key = ?",
                        [(key,) for key in damaged])
                # The hit counter always moves (it feeds ``lifetime_hits``
                # in /stats and inspect(), bound or no bound); the LRU
                # recency touch only matters when ``max_entries`` can
                # actually evict.
                if self.max_entries is not None:
                    now = time.time()
                    self._conn.executemany(
                        "UPDATE results SET last_used_at = ?, hits = hits + 1 "
                        "WHERE key = ?", [(now, key) for key in found])
                else:
                    self._conn.executemany(
                        "UPDATE results SET hits = hits + 1 WHERE key = ?",
                        [(key,) for key in found])
        return found

    def store(self, key: str, result: NetworkResult,
              spec: Spec = None) -> None:
        self.store_many([(key, result, spec)])

    def store_many(self, entries: Sequence[
            Tuple[str, NetworkResult, Spec]]) -> None:
        self.store_encoded([(key, result, codec.encode([result]), spec)
                            for key, result, spec in entries])

    def store_encoded(self, entries: Sequence[
            Tuple[str, NetworkResult, bytes, Spec]]) -> None:
        """Write the entries in one transaction, frames kept as given, then
        evict down to ``max_entries`` once."""
        if not entries:
            return
        now = time.time()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results "
                "(key, format, spec, result, created_at, last_used_at, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, 0)",
                [(key, codec.VERSION,
                  spec if spec is None or isinstance(spec, str)
                  else json.dumps(spec),
                  frame, now, now)
                 for key, _, frame, spec in entries],
            )
            if self.max_entries is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM results").fetchone()
                excess = count - self.max_entries
                if excess > 0:
                    cursor = self._conn.execute(
                        "DELETE FROM results WHERE key IN ("
                        "  SELECT key FROM results "
                        "  ORDER BY last_used_at ASC, rowid ASC LIMIT ?)",
                        (excess,),
                    )
                    self.evictions += cursor.rowcount

    def contains(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            return count

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        return f"{self.name} ({self.path})"

    @classmethod
    def inspect(cls, path: os.PathLike,
                lock_retries: int = 5,
                lock_retry_delay_s: float = 0.1) -> Dict[str, object]:
        """Read-only statistics for a store database.

        Unlike constructing a store (which *repairs* incompatible databases
        by wiping them), inspection never writes: an incompatible or foreign
        file is reported, not destroyed.  Raises ``ValueError`` when ``path``
        is not a SQLite database at all.

        Inspecting a store a live service is writing to can momentarily hit
        SQLite's writer lock; those attempts are retried (up to
        ``lock_retries`` times, ``lock_retry_delay_s`` apart) and the count
        is surfaced as ``lock_retries`` in the payload -- a non-zero value
        is itself a useful signal that the store is under write contention.
        """
        path = Path(path).expanduser()
        retries = 0
        while True:
            conn = None
            try:
                conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
                (version,) = conn.execute("PRAGMA user_version").fetchone()
                payload: Dict[str, object] = {
                    "backend": "sqlite",
                    "path": str(path),
                    "schema_version": version,
                    "compatible": version == SCHEMA_VERSION,
                    "size_bytes": path.stat().st_size,
                    "lock_retries": retries,
                }
                if version == SCHEMA_VERSION:
                    (payload["entries"],) = conn.execute(
                        "SELECT COUNT(*) FROM results").fetchone()
                    (payload["lifetime_hits"],) = conn.execute(
                        "SELECT COALESCE(SUM(hits), 0) FROM results"
                    ).fetchone()
                return payload
            except sqlite3.OperationalError as error:
                locked = "locked" in str(error) or "busy" in str(error)
                if locked and retries < lock_retries:
                    retries += 1
                    time.sleep(lock_retry_delay_s)
                    continue
                raise ValueError(f"{path} is not a result-store database: "
                                 f"{error}") from None
            except sqlite3.Error as error:
                raise ValueError(f"{path} is not a result-store database: "
                                 f"{error}") from None
            finally:
                if conn is not None:
                    conn.close()

    def stats_dict(self) -> Dict[str, object]:
        """Store-level counters (the service's /stats ``store`` section)."""
        with self._lock:
            (entries,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            (total_hits,) = self._conn.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM results").fetchone()
        try:
            size_bytes = self.path.stat().st_size
        except OSError:
            size_bytes = 0
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "entries": entries,
            "max_entries": self.max_entries,
            "size_bytes": size_bytes,
            "lifetime_hits": total_hits,
            "evictions": self.evictions,
            "invalid_entries": self.invalid_entries,
            "schema_resets": self.schema_resets,
        }
