"""Job executor: cached, optionally parallel execution of simulation jobs.

:class:`JobExecutor` is the engine behind every experiment harness: it takes
a batch of declarative :class:`~repro.sim.jobs.spec.SimJob`\\ s, consults the
result cache, deduplicates identical jobs inside the batch, executes the
remainder -- serially or fanned out over a ``multiprocessing`` pool -- and
returns the results *in job order*, so aggregation code is byte-for-byte
independent of worker count.

A process-wide default executor (serial, in-memory cache) backs every
experiment ``run()`` that is not handed an explicit executor; the CLI
installs a shared one so that ``loom-repro all`` simulates each unique
(network, accelerator, configuration) job exactly once across all tables and
figures.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, Iterable, List, Optional,
                    Sequence)

from repro.obs.trace import get_tracer
from repro.sim.jobs.cache import ResultCache
from repro.sim.jobs.spec import SimJob, execute_job, job_key, spec_json
from repro.sim.results import NetworkResult

__all__ = [
    "ExecutorStats",
    "JobEvent",
    "JobExecutor",
    "get_default_executor",
    "set_default_executor",
    "use_executor",
]


@dataclass
class ExecutorStats:
    """What an executor did over its lifetime.

    ``executed`` counts actual simulations; ``cache_hits`` jobs answered from
    the cache; ``dedup_hits`` duplicate jobs inside a batch that piggybacked
    on another job's execution.  ``executed_key_counts`` maps each content key
    to how many times it was simulated -- with a shared cache every count is 1,
    which is exactly what the pipeline tests assert.
    """

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    batched_jobs: int = 0
    shm_transports: int = 0
    #: Worker payloads that fell back to inline pickling (shared memory
    #: unavailable or below the size cutoff); the complement of
    #: ``shm_transports``.  A high ratio on a box that should support shared
    #: memory is a deployment smell worth surfacing on /stats.
    pickle_transports: int = 0
    executed_key_counts: Dict[str, int] = field(default_factory=dict)
    #: Cumulative wall seconds per execution phase (``cache_lookup``,
    #: ``layer_table_build``, ``simulate``, ``transport_scatter``) -- the
    #: "where did this request spend its time" answer, surfaced on /stats
    #: and as the ``loom_executor_phase_seconds`` histogram.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_counts: Dict[str, int] = field(default_factory=dict)

    def record_execution(self, key: str) -> None:
        self.executed += 1
        self.executed_key_counts[key] = self.executed_key_counts.get(key, 0) + 1

    def record_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1

    @property
    def max_executions_per_key(self) -> int:
        if not self.executed_key_counts:
            return 0
        return max(self.executed_key_counts.values())

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (what ``loom-repro serve`` reports on /stats).

        ``layer_table_hits`` / ``layer_table_builds`` surface the process-wide
        layer-table memo (:func:`repro.sim.jobs.spec.layer_table_cache_info`):
        a sweep that revisits the same networks should show hits climbing
        while builds stay flat.
        """
        from repro.sim.jobs.spec import layer_table_cache_info

        table_info = layer_table_cache_info()
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "batched_jobs": self.batched_jobs,
            "shm_transports": self.shm_transports,
            "pickle_transports": self.pickle_transports,
            "layer_table_hits": table_info["hits"],
            "layer_table_builds": table_info["builds"],
            "unique_keys_executed": len(self.executed_key_counts),
            "max_executions_per_key": self.max_executions_per_key,
            "phases": {
                phase: {
                    "seconds": round(self.phase_seconds[phase], 6),
                    "count": self.phase_counts.get(phase, 0),
                }
                for phase in sorted(self.phase_seconds)
            },
        }

    def summary(self, cache=None) -> str:
        """One-line human-readable account (the CLI's ``--verbose`` output)."""
        line = (f"pipeline: {self.submitted} jobs submitted, "
                f"{self.executed} simulated, {self.cache_hits} cache hits, "
                f"{self.dedup_hits} dedup hits")
        if cache is not None and cache.backend is not None:
            line += (f" ({cache.backend.describe()}: "
                     f"{cache.stats.disk_hits} hits, "
                     f"{cache.stats.stores} stores)")
        return line


@dataclass(frozen=True)
class JobEvent:
    """Progress notification for one job in a batch."""

    job: SimJob
    key: str
    status: str  # "cached", "deduplicated" or "executed"
    index: int
    total: int


#: Sentinel: "give this executor its own fresh in-memory cache".
_FRESH_CACHE = object()


class JobExecutor:
    """Runs batches of jobs with caching, dedup and optional parallelism.

    Parameters
    ----------
    workers:
        Process count for the ``multiprocessing`` fan-out.  ``1`` executes
        inline (no pool); results are identical either way.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely
        (every submitted job is executed, duplicates included).  Left at the
        default, each executor gets its own fresh in-memory cache.
    progress:
        Optional hook called with a :class:`JobEvent` as each job resolves.
    log:
        Optional ``callable(str)`` for human-readable progress lines.
    engine:
        Simulation engine for this executor's jobs (``"fast"``, ``"event"``
        or ``"batched"``); ``None`` follows the process default at each
        ``run()``.  With ``"batched"``, cache-missing jobs are dispatched to
        :func:`repro.sim.batched.simulate_jobs_batched` in whole groups
        (jobs whose accelerator lacks a vector kernel fall back per job
        automatically).  All engines return bit-identical results.
    """

    def __init__(
        self,
        workers: int = 1,
        cache=_FRESH_CACHE,
        progress: Optional[Callable[[JobEvent], None]] = None,
        log: Optional[Callable[[str], None]] = None,
        engine: Optional[str] = None,
    ) -> None:
        from repro.sim.fastpath import resolve_engine

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache: Optional[ResultCache] = (
            ResultCache() if cache is _FRESH_CACHE else cache
        )
        self.progress = progress
        self.log = log
        if engine is not None:
            resolve_engine(engine)  # fail fast on unknown names
        self.engine = engine
        self.stats = ExecutorStats()
        #: Optional ``callable(phase, seconds)`` invoked on every phase
        #: sample -- the serve service and cluster worker point this at a
        #: ``loom_executor_phase_seconds{phase=...}`` histogram.
        self.phase_observer: Optional[Callable[[str, float], None]] = None
        self._pool = None

    @contextlib.contextmanager
    def _phase(self, phase: str, **attrs: object):
        """Time a named execution phase: stats + observer + a trace span."""
        started = time.perf_counter()
        with get_tracer().span(f"executor.{phase}", **attrs):
            try:
                yield
            finally:
                self._record_phase(phase, time.perf_counter() - started)

    def _record_phase(self, phase: str, seconds: float) -> None:
        self.stats.record_phase(phase, seconds)
        if self.phase_observer is not None:
            self.phase_observer(phase, seconds)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_pool(self):
        if self._pool is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._pool = context.Pool(self.workers)
        return self._pool

    # -- execution -----------------------------------------------------------

    def run(self, jobs: Iterable[SimJob], engine: Optional[str] = None,
            backend_misses: Collection[str] = ()) -> List[NetworkResult]:
        """Execute ``jobs`` and return their results in submission order.

        Within the batch, jobs with identical content keys are simulated
        once; with a cache attached, jobs already answered by a previous
        batch are not simulated at all.  Progress events fire as each job
        resolves (cache lookups and executions as they happen; batch
        duplicates once the job they piggyback on has resolved).  Returned
        results are shared with the cache -- treat them as read-only.

        ``engine`` overrides the executor's engine for this batch; all
        engines are bit-identical by contract, so the cache keys do not
        record it.  ``backend_misses`` names keys the caller has just
        looked up in the cache's backend without a hit; the counted lookup
        re-checks only the memory layer for them.
        """
        jobs = list(jobs)
        if engine is None:
            engine = self.engine
        else:
            from repro.sim.fastpath import resolve_engine

            resolve_engine(engine)
        with get_tracer().span("executor.run", jobs=len(jobs),
                               engine=engine or "default"):
            return self._run(jobs, engine, backend_misses)

    def _run(self, jobs: List[SimJob], engine: Optional[str],
             backend_misses: Collection[str] = ()) -> List[NetworkResult]:
        keys = [job_key(job) for job in jobs]
        total = len(jobs)
        self.stats.submitted += total

        def emit(job, key, status, index):
            if self.progress is not None:
                self.progress(JobEvent(job=job, key=key, status=status,
                                       index=index, total=total))

        if self.cache is None:
            # No cache: execute every submission, duplicates included.
            def on_results(start, results):
                for index in range(start, start + len(results)):
                    self.stats.record_execution(keys[index])
                    emit(jobs[index], keys[index], "executed", index)

            return self._execute_timed(jobs, on_results, engine)

        resolved: Dict[str, NetworkResult] = {}
        statuses: Dict[str, str] = {}
        first_index: Dict[str, int] = {}
        pending: List[SimJob] = []
        pending_keys: List[str] = []
        with self._phase("cache_lookup", jobs=total):
            for index, key in enumerate(keys):
                first_index.setdefault(key, index)
            # One batched lookup: a peer-aware backend asks each peer once
            # for every memory miss instead of once per key.
            hits = self.cache.get_many(first_index,
                                       memory_only=backend_misses)
            for key, index in first_index.items():
                job = jobs[index]
                cached = hits.get(key)
                if cached is not None:
                    resolved[key] = cached
                    statuses[key] = "cached"
                    emit(job, key, "cached", index)
                else:
                    statuses[key] = "executed"
                    pending.append(job)
                    pending_keys.append(key)

        if pending:
            if self.log is not None:
                self.log(
                    f"simulating {len(pending)} of {total} jobs "
                    f"({total - len(pending)} cached/deduplicated)"
                )
            # The audit spec on persistent entries is only worth passing
            # when there is a backend that stores it.
            keep_spec = (self.cache.backend is not None
                         and self.cache.backend.keeps_spec)

            def on_results(start, results):
                entries = []
                for position, result in enumerate(results, start):
                    job, key = pending[position], pending_keys[position]
                    self.stats.record_execution(key)
                    entries.append((key, result,
                                    spec_json(job) if keep_spec else None))
                    resolved[key] = result
                # A batch of results is one backend write (one SQLite
                # transaction, one replication queue append).
                self.cache.put_many(entries)
                for position in range(start, start + len(results)):
                    emit(pending[position], pending_keys[position],
                         "executed", first_index[pending_keys[position]])

            self._execute_timed(pending, on_results, engine)

        # Account and emit the remaining submissions: repeats of a cached key
        # are further cache hits; repeats of an executed key are dedup hits.
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if statuses[key] == "cached":
                self.stats.cache_hits += 1
                if index != first_index[key]:
                    emit(job, key, "cached", index)
            elif index != first_index[key]:
                self.stats.dedup_hits += 1
                emit(job, key, "deduplicated", index)
        return [resolved[key] for key in keys]

    def _execute_timed(self, jobs: Sequence[SimJob], on_results,
                       engine: Optional[str]) -> List[NetworkResult]:
        """Run jobs under the ``simulate`` phase, carving out table builds.

        ``layer_table_build`` is attributed from the process-wide memo's
        build clock: the delta over the batch is the time ``simulate`` spent
        (re)constructing layer tables in this process.  Builds inside pool
        workers happen in the child and stay inside ``simulate`` here.
        """
        from repro.sim.jobs.spec import layer_table_build_seconds

        build_before = layer_table_build_seconds()
        with self._phase("simulate", jobs=len(jobs)):
            results = self._execute(jobs, on_results, engine=engine)
        build_delta = layer_table_build_seconds() - build_before
        if build_delta > 0.0:
            self._record_phase("layer_table_build", build_delta)
        return results

    def _execute(self, jobs: Sequence[SimJob], on_results=None,
                 engine: Optional[str] = None) -> List[NetworkResult]:
        """Run ``jobs`` in order, invoking ``on_results(start, results)``
        as results arrive: one at a time when jobs run one by one
        (parallel execution streams ordered results back), all at once
        from the batched engine."""
        import functools

        from repro.sim.fastpath import get_default_engine

        # Pin the submit-time engine explicitly so pool workers honour it
        # even on platforms where the pool falls back to spawn (a spawned
        # worker re-imports with the engine default reset to "fast").
        if engine is None:
            engine = get_default_engine()
        if engine == "batched":
            return self._execute_batched(jobs, on_results)
        results: List[NetworkResult] = []
        if self.workers == 1 or len(jobs) < 2:
            run_job = functools.partial(execute_job, engine=engine)
            iterator = (run_job(job) for job in jobs)
        else:
            # Workers pack their chunk's numeric result columns into shared
            # memory (transport module) so only metadata crosses the pipe.
            pool = self._get_pool()
            chunksize = max(1, len(jobs) // (self.workers * 4))
            chunks = [jobs[start:start + chunksize]
                      for start in range(0, len(jobs), chunksize)]
            run_chunk = functools.partial(_run_jobs_packed, engine=engine)
            iterator = self._unpack_payloads(pool.imap(run_chunk, chunks))
        for index, result in enumerate(iterator):
            if on_results is not None:
                on_results(index, [result])
            results.append(result)
        return results

    def _execute_batched(self, jobs: Sequence[SimJob],
                         on_results=None) -> List[NetworkResult]:
        """Dispatch whole groups to the batched engine (one tensor pass per
        design group) instead of simulating job by job."""
        from repro.sim.batched import simulate_jobs_batched

        jobs = list(jobs)
        self.stats.batched_jobs += len(jobs)
        if self.workers == 1 or len(jobs) < 2:
            results = simulate_jobs_batched(jobs)
        else:
            pool = self._get_pool()
            chunksize = -(-len(jobs) // self.workers)
            chunks = [jobs[start:start + chunksize]
                      for start in range(0, len(jobs), chunksize)]
            results = list(
                self._unpack_payloads(pool.imap(_run_jobs_batched_packed,
                                                chunks))
            )
        if on_results is not None:
            on_results(0, results)
        return results

    def _unpack_payloads(self, payloads):
        """Flatten packed chunk payloads back into an ordered result stream."""
        from repro.sim.jobs.transport import unpack_results

        for payload in payloads:
            started = time.perf_counter()
            results, used_shm = unpack_results(payload)
            self._record_phase("transport_scatter",
                               time.perf_counter() - started)
            if used_shm:
                self.stats.shm_transports += 1
            else:
                self.stats.pickle_transports += 1
            yield from results


# -- pool worker entry points --------------------------------------------------
#
# Module-level so they pickle by reference into pool workers.  Both pack their
# chunk's results through the shared-memory transport; the parent's
# ``_unpack_payloads`` rebuilds the stream (and the transport degrades to
# inline pickling wherever shared memory is unavailable).


def _run_jobs_packed(jobs: Sequence[SimJob], engine: str):
    from repro.sim.jobs.transport import pack_results

    return pack_results([execute_job(job, engine=engine) for job in jobs])


def _run_jobs_batched_packed(jobs: Sequence[SimJob]):
    from repro.sim.batched import simulate_jobs_batched
    from repro.sim.jobs.transport import pack_results

    return pack_results(simulate_jobs_batched(jobs))


# -- process-wide default executor --------------------------------------------

_default_executor: Optional[JobExecutor] = None


def get_default_executor() -> JobExecutor:
    """The process-wide executor experiments fall back to (serial, cached)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = JobExecutor()
    return _default_executor


def set_default_executor(executor: Optional[JobExecutor]) -> Optional[JobExecutor]:
    """Install ``executor`` as the process-wide default; returns the previous one."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


@contextlib.contextmanager
def use_executor(executor: JobExecutor):
    """Temporarily make ``executor`` the default (restores the old one on exit)."""
    previous = set_default_executor(executor)
    try:
        yield executor
    finally:
        set_default_executor(previous)
