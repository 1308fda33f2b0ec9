"""Shard-facing core of the simulation service (HTTP-independent).

:class:`ServiceCore` is the submission engine that used to live inside
:class:`~repro.serve.service.SimulationService`: request coalescing, the
bounded-admission backpressure, the warm-store fast path, sweep execution
and the stats surface -- everything a *node* needs, with no opinion about
the wire protocol in front of it.

Two fronts wrap it today:

* :class:`~repro.serve.service.SimulationService` -- the single-box threaded
  HTTP server behind ``loom-repro serve``;
* :class:`~repro.cluster.worker.ClusterWorker` -- the asyncio shard service
  behind ``loom-repro cluster``, where each worker owns one core (and
  through it one warm executor + one SQLite store).

The split is what lets the cluster reuse the serve semantics verbatim: a
shard answers exactly like the single-box service because it *is* the same
code path.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.explore.engine import explore
from repro.explore.search import strategy_from_request
from repro.explore.space import SweepSpec, canonical_point, point_to_job
from repro.sim.jobs import JobExecutor, ResultCache, job_key
from repro.sim.results import NetworkResult

__all__ = ["Backpressure", "ServiceCore", "ServiceStats"]


class Backpressure(Exception):
    """Raised when the in-flight job bound is reached (maps to HTTP 429)."""

    def __init__(self, pending: int, limit: int, retry_after_s: int) -> None:
        super().__init__(
            f"job queue is full ({pending} in flight, limit {limit}); "
            f"retry in {retry_after_s}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass
class ServiceStats:
    """Request-level counters (everything execution-level lives in the
    executor/cache stats the service also reports)."""

    requests: int = 0
    submitted_points: int = 0
    store_answers: int = 0
    coalesced: int = 0
    rejected: int = 0
    errors: int = 0
    explores: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "submitted_points": self.submitted_points,
            "store_answers": self.store_answers,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "errors": self.errors,
            "explores": self.explores,
        }


class _Inflight:
    """One in-flight execution other submissions of the same key can join."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[NetworkResult] = None
        self.error: Optional[BaseException] = None


@dataclass
class _Submitted:
    """Resolution of one submitted point."""

    key: str
    status: str  # "cached", "executed" or "coalesced"
    result: NetworkResult

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "status": self.status,
            "result": self.result.to_dict(),
        }


class ServiceCore:
    """Coalescing, backpressure, execution and stats for one serve node.

    Parameters
    ----------
    executor:
        The shared :class:`JobExecutor` (and, through it, the result cache /
        persistent store) every request executes against.  The core owns it:
        ``close()`` closes it.
    queue_limit:
        Bound on concurrently admitted execution batches before submissions
        are refused with :class:`Backpressure` (one batch = one unit,
        however many jobs it carries; coalesced duplicates and store answers
        never count).
    retry_after_s:
        The ``Retry-After`` hint carried by :class:`Backpressure`.
    wait_timeout_s:
        How long a coalesced waiter polls an owner's execution before
        giving up (a safety net; owners always publish, even on error).
    engine:
        Simulation engine for the cache-miss sets the core executes
        (default ``"batched"``); ``None`` follows the executor's own
        setting.  All engines are bit-identical, so served results are
        unaffected by the choice.
    """

    def __init__(
        self,
        executor: Optional[JobExecutor] = None,
        queue_limit: int = 8,
        retry_after_s: int = 1,
        wait_timeout_s: float = 600.0,
        engine: Optional[str] = "batched",
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.executor = executor if executor is not None else JobExecutor(
            cache=ResultCache(max_memory_entries=512))
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        self.wait_timeout_s = wait_timeout_s
        if engine is not None:
            from repro.sim.fastpath import resolve_engine

            resolve_engine(engine)  # fail fast on unknown names
        self.engine = engine
        self.stats = ServiceStats()
        self.started_at: Optional[float] = None
        self._inflight: Dict[str, _Inflight] = {}
        self._pending_batches = 0
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._execute_lock = threading.Lock()

    # -- core submission path -------------------------------------------------

    @property
    def cache(self) -> Optional[ResultCache]:
        return self.executor.cache

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Race-free ServiceStats increment (handlers run concurrently)."""
        with self._stats_lock:
            setattr(self.stats, counter,
                    getattr(self.stats, counter) + amount)

    @contextlib.contextmanager
    def _admit_batch(self):
        """Claim one execution-batch admission slot (429 when full).

        Both execution-bearing routes (/jobs owner batches and /explore
        sweeps) pass through this bound, so neither can queue unboundedly
        on the execution lock.
        """
        with self._lock:
            if self._pending_batches >= self.queue_limit:
                self._bump("rejected")
                raise Backpressure(
                    pending=self._pending_batches,
                    limit=self.queue_limit,
                    retry_after_s=self.retry_after_s,
                )
            self._pending_batches += 1
        try:
            yield
        finally:
            with self._lock:
                self._pending_batches -= 1

    def submit_points(self, raw_points: Sequence[Mapping[str, object]],
                      timeout_s: Optional[float] = None) -> List[_Submitted]:
        """Resolve a batch of raw point mappings into results.

        Point order is preserved.  Already-stored keys are answered from the
        cache (no lock, no admission needed); keys another request is
        currently executing are joined (coalesced); the rest are executed
        here as one executor batch -- which counts as *one* unit against the
        ``queue_limit`` admission bound, however many jobs it carries.
        Raises :class:`Backpressure` when the service already has
        ``queue_limit`` admitted batches, and ``ValueError`` for malformed
        points.
        """
        timeout_s = timeout_s if timeout_s is not None else self.wait_timeout_s
        entries: List[Tuple[object, str]] = []
        for raw in raw_points:
            if not isinstance(raw, Mapping):
                raise ValueError(
                    f"a job point must be a JSON object, got {type(raw).__name__}"
                )
            job = point_to_job(canonical_point(raw))
            entries.append((job, job_key(job)))

        statuses: Dict[str, str] = {}
        resolved: Dict[str, NetworkResult] = {}
        # Pass 1, no service lock: warm keys resolve straight from the
        # (internally locked) cache, so warm traffic never serialises behind
        # another request's admission or bookkeeping.  One batched lookup
        # with misses uncounted (a peek): cold keys get their authoritative
        # (counted) lookup inside executor.run, so misses are not
        # double-counted in /stats.  That lookup re-checks only the memory
        # layer for them: this pass already asked the backend (and through
        # it every peer), and asking again would double the peer traffic.
        if self.cache is not None:
            resolved.update(self.cache.get_many(
                (key for _, key in entries), count_misses=False))
            statuses.update(dict.fromkeys(resolved, "cached"))

        waits: Dict[str, _Inflight] = {}
        own: List[Tuple[object, str]] = []
        coalesced = 0
        if len(resolved) < len({key for _, key in entries}):
            with self._lock:
                for job, key in entries:
                    if key in statuses:
                        continue
                    inflight = self._inflight.get(key)
                    if inflight is not None:
                        statuses[key] = "coalesced"
                        waits[key] = inflight
                        coalesced += 1
                        continue
                    statuses[key] = "executed"
                    own.append((job, key))
                if own:
                    if self._pending_batches >= self.queue_limit:
                        self._bump("rejected")
                        raise Backpressure(
                            pending=self._pending_batches,
                            limit=self.queue_limit,
                            retry_after_s=self.retry_after_s,
                        )
                    self._pending_batches += 1
                    for _, key in own:
                        self._inflight[key] = _Inflight()
        # Admission succeeded: commit the request-level counters.
        self._bump("submitted_points", len(entries))
        self._bump("store_answers",
                   sum(1 for s in statuses.values() if s == "cached"))
        self._bump("coalesced", coalesced)

        if own:
            error: Optional[BaseException] = None
            results: List[NetworkResult] = []
            try:
                with self._execute_lock:
                    results = self.executor.run(
                        [job for job, _ in own], engine=self.engine,
                        backend_misses=[key for _, key in own])
            except BaseException as exc:  # always publish, even on error
                error = exc
            finally:
                with self._lock:
                    self._pending_batches -= 1
                    for index, (_, key) in enumerate(own):
                        inflight = self._inflight.pop(key)
                        if error is None:
                            inflight.result = results[index]
                            resolved[key] = results[index]
                        else:
                            inflight.error = error
                        inflight.event.set()
            if error is not None:
                raise error

        for key, inflight in waits.items():
            if not inflight.event.wait(timeout_s):
                raise TimeoutError(
                    f"timed out after {timeout_s}s waiting for in-flight "
                    f"job {key}"
                )
            if inflight.error is not None:
                raise RuntimeError(
                    f"coalesced job {key} failed in its owning request: "
                    f"{inflight.error}"
                )
            resolved[key] = inflight.result

        return [
            _Submitted(key=key, status=statuses[key], result=resolved[key])
            for _, key in entries
        ]

    def lookup(self, key: str) -> Tuple[str, Optional[NetworkResult]]:
        """Look a content key up: ('done', result), ('pending', None) or
        ('unknown', None)."""
        result = self.cache.peek(key) if self.cache is not None else None
        if result is not None:
            return "done", result
        with self._lock:
            if key in self._inflight:
                return "pending", None
        return "unknown", None

    def run_explore(self, request: Mapping[str, object]) -> Dict[str, object]:
        """Run one design-space sweep against the warm store.

        ``request`` is ``{"space": <SweepSpec dict>, "strategy": name,
        "options": {key: value}, "budget": N, "objectives": [...],
        "baseline": kind}`` with everything but ``space`` optional;
        ``options`` is the uniform strategy-option mapping (``--strategy-opt``
        on the CLI) and ``budget`` caps true simulations.  Legacy top-level
        ``samples`` / ``seed`` keys keep working.  ``stream`` is accepted
        (and ignored here) so streaming-capable fronts can share the
        validation.
        """
        if "space" not in request:
            raise ValueError("explore request needs a 'space' sweep spec")
        unknown = set(request) - {"space", "strategy", "options", "budget",
                                  "samples", "seed", "objectives", "baseline",
                                  "stream"}
        if unknown:
            raise ValueError(f"unknown explore request keys: {sorted(unknown)}")
        space = SweepSpec.from_dict(request["space"])
        strategy, budget = strategy_from_request(request)
        self._bump("explores")
        with self._admit_batch(), self._execute_lock:
            result = explore(
                space,
                strategy=strategy,
                objectives=request.get(
                    "objectives", ("speedup", "energy_efficiency", "area")),
                executor=self.executor,
                baseline=request.get("baseline", "dpnn"),
                engine=self.engine,
                budget=budget,
            )
        return result.to_dict()

    def stats_dict(self) -> Dict[str, object]:
        """Everything /stats reports, as plain data."""
        payload: Dict[str, object] = {
            "uptime_s": (time.time() - self.started_at
                         if self.started_at is not None else 0.0),
            "queue_limit": self.queue_limit,
            "pending_batches": self._pending_batches,
            "inflight": len(self._inflight),
            "service": self.stats.to_dict(),
            "executor": self.executor.stats.to_dict(),
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache.stats.to_dict(),
                                    memory_entries=len(self.cache))
            backend = self.cache.backend
            if backend is not None:
                payload["store"] = (
                    backend.stats_dict() if hasattr(backend, "stats_dict")
                    else {"backend": backend.describe(),
                          "entries": len(backend)}
                )
        return payload

    def cache_hit_ratio(self) -> float:
        """Fraction of submitted jobs answered without a simulation (the
        ``/metrics`` cache-efficiency gauge; 0.0 while nothing was
        submitted)."""
        submitted = self.stats.submitted_points
        if not submitted:
            return 0.0
        executor_stats = self.executor.stats
        # Store fast-path and coalescing answers happen above the executor,
        # so they appear in the service counters, not the executor's.
        answered = (self.stats.store_answers + self.stats.coalesced
                    + executor_stats.cache_hits + executor_stats.dedup_hits)
        return min(1.0, answered / submitted)

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until no batch is admitted or in flight; True when idle."""
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            with self._lock:
                idle = self._pending_batches == 0 and not self._inflight
            if idle:
                return True
            time.sleep(0.02)
        return False

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Drain in-flight work, then release the executor and store.

        The execute lock guarantees no ``executor.run`` (and therefore no
        store write) is mid-flight when the resources close; a request
        racing the shutdown would otherwise hit a closed SQLite connection
        and lose its computed result.
        """
        self.drain(drain_timeout_s)
        with self._execute_lock:
            self.executor.close()
            if self.cache is not None:
                self.cache.close()
