#!/usr/bin/env python3
"""Host-time benchmark of the Loom reproduction: sweeps and requests through
every tier, with per-layer numbers taken from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cluster_cold --seed 1 \\
        --seconds 20 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``sweep_local``        -- ``repro.explore.explore`` in process, one fresh
  ``JobExecutor`` (default engine) per round: the ``loom-repro explore`` path;
* ``sweep_cluster_cold`` -- ``explore`` through ``RemoteExecutor(stream=True)``
  against ``loom-repro cluster --workers 2``; every key of every round is new;
* ``requests_serve``     -- single-point ``ServeClient.submit`` against
  ``loom-repro serve``: 108 of every 120 repeat a key from a pre-filled
  pool, 12 ask for a new one.

A round is one 120-point grid (6 networks x 4 designs x 5 ``equivalent_macs``)
whose ``clock_ghz`` is drawn from ``--seed``; in ``requests_serve`` it is 120
consecutive requests.  The load is one closed loop on one thread.  Rounds run
back to back until ``--seconds`` of round time is measured, split evenly over
``SETUPS`` tier launches.  Every result received is compared field by field
with the in-process batched engine, outside the timed rounds.

``--trace 0`` prints the end-to-end metrics: the median set-up time, the
median CPU time of a round over every process involved, in units of a fixed
pure-Python reference measured in the same run (``reference()``), and the
peak RSS.  Wall times go to the log only: on a shared host they measure the
neighbours as much as the program (``perfbench/README.md``, "Steadiness").
``--trace 1`` runs the same workload with ``repro.obs`` spans around every
call into a layer (on every other round, so the untraced rounds measure the
tracing overhead), scrapes ``/stats`` and ``/metrics`` of every node between
rounds, replays each traced round's results through the codec, a scratch
store and the batched kernel, writes a Chrome trace under ``.perfbench_out/``
and prints the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from the repository root")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from repro.explore import Axis, SweepSpec, explore, point_to_job  # noqa: E402
from repro.obs import SpanRecorder, Tracer, chrome_trace, set_tracer  # noqa: E402
from repro.obs.trace import Span  # noqa: E402
from repro.serve import RemoteExecutor, ServeClient, ServeError  # noqa: E402
from repro.serve.store import SQLiteResultStore  # noqa: E402
from repro.sim.batched import simulate_jobs_batched  # noqa: E402
from repro.sim.jobs import JobExecutor, job_key  # noqa: E402
from repro.sim.results import NetworkResult  # noqa: E402
from repro.sim.validate import compare_layer_results  # noqa: E402

from tiers import Tier, flatten, peak_rss_mb  # noqa: E402

NETWORKS = ("alexnet", "nin", "googlenet", "vggm", "mobilenet_v1", "resnet18")
DESIGNS = ("loom", "dstripes", "stripes", "dpnn")
MACS = (32, 64, 128, 256, 512)
ROUND_POINTS = len(NETWORKS) * len(DESIGNS) * len(MACS)  # 120

WORKLOADS = ("sweep_local", "sweep_cluster_cold", "requests_serve")
TIER_OF = {"sweep_local": None, "sweep_cluster_cold": "cluster",
           "requests_serve": "serve"}
#: requests_serve pre-fills 5 grids (600 keys) against serve's 512-entry
#: memory tier.
POOL_GRIDS = {"requests_serve": 5}
#: requests_serve: requests per 120-request round for a new key (10%).
NEW_PER_ROUND = 12
#: Tier launches per run; each serves an equal share of the timed rounds.
SETUPS = 3
#: sweep_local set-ups are fresh interpreters, cheap enough to take more of.
LOCAL_SETUPS = 15
#: Runs of ``reference()`` after each round.
REFERENCE_REPEATS = 5


def grid(clock_ghz: float) -> SweepSpec:
    return SweepSpec(axes=[Axis("network", NETWORKS),
                           Axis("accelerator", DESIGNS),
                           Axis("equivalent_macs", MACS)],
                     base={"clock_ghz": clock_ghz})


def grid_points(clock_ghz: float) -> List[dict]:
    return [{"network": n, "accelerator": a, "equivalent_macs": m,
             "clock_ghz": clock_ghz}
            for n in NETWORKS for a in DESIGNS for m in MACS]


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- measurement hooks -----------------------------------------------------------


class Probe:
    """Where the benchmark's timings go; opens spans only on traced rounds."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.traced = False
        self.calls: List[float] = []  # seconds of each successful tier call

    def span(self, name: str, **attrs):
        if self.traced:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext()


class MeasuredClient(ServeClient):
    """ServeClient that times each job submission (span on traced rounds)."""

    def __init__(self, base_url: str, probe: Probe) -> None:
        super().__init__(base_url, timeout_s=120.0)
        self.probe = probe

    def _timed(self, name: str, call: Callable, *args, **kwargs):
        started = time.perf_counter()
        with self.probe.span(f"bench.client.{name}"):
            result = call(*args, **kwargs)
        self.probe.calls.append(time.perf_counter() - started)
        return result

    def submit(self, *args, **kwargs):
        return self._timed("submit", super().submit, *args, **kwargs)

    def submit_points(self, points):
        return self._timed("submit_points", super().submit_points, points)

    def submit_points_stream(self, points, on_entry=None):
        return self._timed("submit_points_stream",
                           super().submit_points_stream, points, on_entry)


class MeasuredExecutor:
    """Executor-protocol wrapper: times ``run`` and keeps every batch."""

    def __init__(self, inner, probe: Probe) -> None:
        self.inner = inner
        self.probe = probe
        self.cache = getattr(inner, "cache", None)
        self.run_s = 0.0
        self.batches: List[Tuple[list, list]] = []

    def run(self, jobs, engine=None):
        jobs = list(jobs)
        started = time.perf_counter()
        with self.probe.span("bench.executor.run", jobs=len(jobs)):
            results = self.inner.run(jobs, engine=engine)
        self.run_s += time.perf_counter() - started
        self.batches.append((jobs, results))
        return results


@dataclass
class Round:
    seconds: float
    points: int
    attempted: int  # results requested from the tier
    run_s: float  # inside executor.run (sweeps)
    calls: List[float]
    traced: bool
    batches: List[Tuple[list, list]]  # (jobs, results) received
    new_jobs: list = field(default_factory=list)  # keys simulated cold
    delta: Dict[str, float] = field(default_factory=dict)  # counters moved
    retries: int = 0
    cpu_s: float = 0.0  # CPU time of this process and the tier's


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0


def unique_jobs(batches) -> list:
    return list({job_key(job): job
                 for jobs, _ in batches for job in jobs}.values())


def check_batches(batches, counts: Counts) -> None:
    """Compare every received result with the in-process batched engine."""
    keys, results, unique = [], [], {}
    for jobs, batch_results in batches:
        for job, result in zip(jobs, batch_results):
            key = job_key(job)
            keys.append(key)
            results.append(result)
            unique.setdefault(key, job)
    references = dict(zip(unique, simulate_jobs_batched(list(unique.values()))))
    for key, result in zip(keys, results):
        reference = references[key]
        if ((result.network, result.accelerator, result.clock_ghz)
                != (reference.network, reference.accelerator,
                    reference.clock_ghz)
                or compare_layer_results(result.layers, reference.layers)):
            counts.mismatched += 1
            counts.failed += 1


# -- the benchmark ------------------------------------------------------------------


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = args.workload
        self.kind = TIER_OF[args.workload]
        values = list(range(5000, 30000))
        random.Random(args.seed).shuffle(values)
        self._clocks = iter(v / 10000 for v in values)
        self.rng = random.Random(args.seed ^ 0x5EED)
        self.warmup_clock = self.next_clock()
        self.pool = [self.next_clock()
                     for _ in range(POOL_GRIDS.get(self.workload, 0))]
        self._pool_points = [p for clock in self.pool
                             for p in grid_points(clock)]
        self._new_points: List[dict] = []
        self.tracer = None
        if args.trace:
            self.tracer = Tracer(service="perfbench",
                                 recorder=SpanRecorder(capacity=1_000_000))
            set_tracer(self.tracer)
        self.probe = Probe(self.tracer)
        self.workdir = tempfile.mkdtemp(
            prefix=f"{self.workload}-", dir=os.path.join(ROOT, ".perfbench_tmp"))
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.workdir)
        self.tier: Optional[Tier] = None
        self.client: Optional[MeasuredClient] = None
        self.remote: Optional[RemoteExecutor] = None
        self.setup_counts = Counts()
        self.timed_counts = Counts()
        self.healthz_s: List[float] = []
        self.references: List[float] = []  # seconds of each reference()
        self.tier_spans: List[Span] = []

    def next_clock(self) -> float:
        return next(self._clocks)

    # -- set-up ----------------------------------------------------------------

    def _tier_setup(self, index: int) -> Tuple[float, float]:
        """Launch the tier, then warm it (new keys) or fill its store (pool).

        Returns the seconds until it is ready and its peak RSS in MB then,
        a point reached by the same work on every commit.
        """
        started = time.perf_counter()
        self.tier = Tier(self.kind, os.path.join(self.workdir, f"tier{index}"),
                         self.env)
        url = self.tier.launch()
        self.client = MeasuredClient(url, self.probe)
        self.remote = RemoteExecutor(self.client,
                                     stream=self.kind == "cluster")
        executor = MeasuredExecutor(self.remote, self.probe)
        for clock in self.pool or [self.warmup_clock]:
            explore(grid(clock), executor=executor)
        seconds = time.perf_counter() - started
        rss_mb = self.tier.peak_rss_mb()
        self.probe.calls = []
        self.setup_counts.attempted += sum(len(j) for j, _ in executor.batches)
        check_batches(executor.batches, self.setup_counts)
        return seconds, rss_mb

    def _local_setup(self) -> Tuple[float, float]:
        """A fresh interpreter: import, build an executor, warm the profiles.

        Returns the seconds until it is ready and its peak RSS in MB then:
        the footprint of one ``loom-repro explore`` invocation.
        """
        code = ("import json, sys\n"
                "from repro.explore import SweepSpec, explore\n"
                "from repro.sim.jobs import JobExecutor\n"
                "explore(SweepSpec.from_dict(json.loads(sys.argv[1])),"
                " executor=JobExecutor())\n"
                "print('ready', flush=True)\n"
                "sys.stdin.read()\n")
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", code,
                 json.dumps(grid(self.warmup_clock).to_dict())],
                cwd=self.workdir, env=self.env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE) as process:
            ready = process.stdout.readline().strip()
            seconds = time.perf_counter() - started
            rss_mb = peak_rss_mb(process.pid)
            process.stdin.close()
            process.stdout.read()
        if ready != b"ready" or process.returncode:
            raise RuntimeError("local set-up process failed")
        return seconds, rss_mb

    # -- rounds ----------------------------------------------------------------

    def sweep_round(self) -> Round:
        clock = self.next_clock()
        self.probe.calls = []
        started = time.perf_counter()
        with self.probe.span("bench.explore", clock_ghz=clock):
            inner = JobExecutor() if self.kind is None else self.remote
            executor = MeasuredExecutor(inner, self.probe)
            explore(grid(clock), executor=executor)
        seconds = time.perf_counter() - started
        round_ = Round(seconds=seconds, points=ROUND_POINTS,
                       attempted=sum(len(j) for j, _ in executor.batches),
                       run_s=executor.run_s,
                       calls=(self.probe.calls if self.kind
                              else [executor.run_s]),
                       traced=self.probe.traced, batches=executor.batches)
        if self.kind is None:
            round_.delta = {f"engine:{key}": value for key, value in
                            flatten({"executor": inner.stats.to_dict()}).items()}
        return round_

    def request_round(self) -> Round:
        self.probe.calls = []
        served, new_points = [], []
        new_at = set(self.rng.sample(range(ROUND_POINTS), NEW_PER_ROUND))
        started = time.perf_counter()
        for index in range(ROUND_POINTS):
            new = index in new_at
            point = self._next_request(new)
            try:
                submitted = self.client.submit(point)
            except ServeError as error:  # 429/503 refusals count as failed
                log(f"request refused: {error}")
                self.timed_counts.failed += 1
                continue
            served.append((point, submitted.result))
            if new:
                new_points.append(point)
        seconds = time.perf_counter() - started
        return Round(seconds=seconds, points=ROUND_POINTS,
                     attempted=ROUND_POINTS, run_s=0.0,
                     calls=self.probe.calls, traced=self.probe.traced,
                     batches=[([point_to_job(p)], [r]) for p, r in served],
                     new_jobs=[point_to_job(p) for p in new_points])

    def _next_request(self, new: bool) -> dict:
        if not new:
            return self.rng.choice(self._pool_points)
        if not self._new_points:
            points = grid_points(self.next_clock())
            by_network = [[p for p in points if p["network"] == network]
                          for network in NETWORKS]
            for group in by_network:
                self.rng.shuffle(group)
            # Every six consecutive new keys hold one of each network, so
            # each round's twelve cost the same to simulate.
            self._new_points = [p for column in zip(*by_network)
                                for p in column]
        return self._new_points.pop()

    def run_rounds(self, seconds: float) -> List[Round]:
        """Closed loop until ``seconds`` of round time is measured."""
        trace = bool(self.args.trace)
        rounds: List[Round] = []
        measured = 0.0
        before = self.tier.scrape() if trace and self.tier else {}
        tier_cpu_s = self.tier.cpu_seconds() if self.tier else 0.0
        while measured < seconds or (trace and len(rounds) < 2):
            self.probe.traced = trace and len(rounds) % 2 == 0
            retries = self._retries()
            cpu_s = time.process_time()
            try:
                if self.workload == "requests_serve":
                    round_ = self.request_round()
                else:
                    round_ = self.sweep_round()
            except (ServeError, OSError) as error:
                # The client's own retries are exhausted: the tier is down.
                log(f"round failed: {error!r}")
                lost = ROUND_POINTS * (1 if self.kind == "serve" else 2)
                self.timed_counts.attempted += lost
                self.timed_counts.failed += lost
                break
            finally:
                self.probe.traced = False
            round_.cpu_s = time.process_time() - cpu_s
            round_.retries = self._retries() - retries
            self.timed_counts.attempted += round_.attempted
            measured += round_.seconds
            if trace and self.tier is not None:
                after = self.tier.scrape()
                round_.delta = {k: after[k] - before.get(k, 0.0)
                                for k in after}
                before = after
                if round_.traced:
                    self.healthz_s.append(self._healthz())
            # Check between rounds and drop what was checked, so the client
            # holds no results across rounds (traced tier rounds are kept
            # for the replays).
            check_batches(round_.batches, self.timed_counts)
            if not (round_.traced and self.kind is not None):
                round_.batches = []
            self.references += [reference()
                                for _ in range(REFERENCE_REPEATS)]
            if self.tier is not None:
                # The tier's CPU from this round's start to the next one's,
                # so work it defers past the reply is counted too.
                now_s = self.tier.cpu_seconds()
                round_.cpu_s += now_s - tier_cpu_s
                tier_cpu_s = now_s
            rounds.append(round_)
        return rounds

    def _retries(self) -> int:
        if self.remote is None:
            return 0
        return self.remote.backpressure_retries + self.remote.transport_retries

    def _healthz(self) -> float:
        started = time.perf_counter()
        with self.tracer.span("bench.client.healthz"):
            ServeClient(self.tier.url).healthz()
        return time.perf_counter() - started

    # -- whole run -------------------------------------------------------------

    def run(self) -> Tuple[dict, bool]:
        """Set up ``SETUPS`` times and measure ``--seconds`` of rounds.

        A tier serves an equal share of the rounds after each of its
        set-ups, so one run averages over several launches (and their hash
        rings).  In process, the set-ups are fresh interpreters, each one
        ``loom-repro explore`` invocation, and the rounds run here afterwards.
        """
        setup_times: List[float] = []
        rounds: List[Round] = []
        peak_rss = 0.0
        if self.kind is None:
            for _ in range(LOCAL_SETUPS):
                seconds, rss_mb = self._local_setup()
                setup_times.append(seconds)
                peak_rss = max(peak_rss, rss_mb)
            explore(grid(self.warmup_clock), executor=JobExecutor())
            rounds = self.run_rounds(self.args.seconds)
        else:
            for index in range(SETUPS):
                seconds, rss_mb = self._tier_setup(index)
                setup_times.append(seconds)
                peak_rss = max(peak_rss, rss_mb)
                rounds += self.run_rounds(self.args.seconds / SETUPS)
                if self.args.trace:
                    self.tier_spans += [Span.from_dict(s)
                                        for s in self.tier.spans()]
                self.tier.close()
                self.tier = None
        log(f"setup_s {['%.3f' % t for t in setup_times]}")
        counts = Counts(
            attempted=self.setup_counts.attempted + self.timed_counts.attempted,
            failed=self.setup_counts.failed + self.timed_counts.failed,
            mismatched=(self.setup_counts.mismatched
                        + self.timed_counts.mismatched))
        log(f"{len(rounds)} rounds; set-up {self.setup_counts}; "
            f"timed {self.timed_counts}")
        if self.args.trace:
            metrics = self.layer_metrics(rounds, counts)
        else:
            metrics = end_to_end(setup_times, rounds, peak_rss,
                                 self.references)
        return {"correct": counts.mismatched == 0,
                "attempted": counts.attempted, "failed": counts.failed,
                "metrics": metrics}, counts.mismatched == 0

    def close(self) -> None:
        if self.tier is not None:
            self.tier.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- traced run: per-layer metrics --------------------------------------------

    def layer_metrics(self, rounds: List[Round], counts: Counts) -> dict:
        traced = [r for r in rounds if r.traced]
        plain = [r for r in rounds if not r.traced]
        replay = self.replay(traced)
        spans = self.tracer.recorder.spans()
        self.write_trace(spans)

        def per_round(key: str) -> float:
            return sum(r.delta.get(key, 0.0) for r in traced) / len(traced)

        engine = {"sweep_local": "engine", "requests_serve": "serve"}.get(
            self.workload, "worker")

        def phase_ms(name: str) -> float:
            return 1000 * per_round(f"{engine}:executor.phases.{name}.seconds")

        jobs_series = '_request_seconds_sum{path="/jobs"}'
        coordinator_ms = 1000 * per_round(
            f"coordinator:loom_coordinator{jobs_series}")
        service_ms = 1000 * per_round(f"serve:loom_serve{jobs_series}")
        calls = [c for r in traced for c in r.calls]
        call_ms = 1000 * sum(calls) / len(traced)
        explore_self_ms = (1000 * statistics.fmean(r.seconds - r.run_s
                                                   for r in traced)
                           if self.workload != "requests_serve" else 0.0)
        cache = {name: per_round(f"{engine}:cache.{name}") if self.kind else 0.0
                 for name in ("memory_hits", "disk_hits", "misses", "stores",
                              "evictions")}
        lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
        peer = {name: per_round(f"worker:loom_peer_cache_{name}_total")
                for name in ("hits", "misses", "timeouts")}
        core = "serve" if self.kind == "serve" else "worker"
        engine_busy_ms = (phase_ms("cache_lookup") + phase_ms("simulate")
                          + phase_ms("transport_scatter"))
        # Non-overlapping layer time: explore's own, then the engine's busy
        # time in process, or the server's time answering /jobs on a tier.
        attributed_ms = explore_self_ms + {
            None: engine_busy_ms, "cluster": coordinator_ms,
            "serve": service_ms}[self.kind]
        round_ms = 1000 * statistics.fmean(r.seconds for r in traced)
        metrics = {
            "explore.self_ms": explore_self_ms,
            "sim.jobs.run_ms": (1000 * statistics.fmean(r.run_s for r in traced)
                                if self.kind is None else engine_busy_ms),
            "sim.jobs.cache_lookup_ms": phase_ms("cache_lookup"),
            "sim.jobs.simulate_ms": phase_ms("simulate"),
            "sim.jobs.table_build_ms": phase_ms("layer_table_build"),
            "sim.jobs.executed": per_round(f"{engine}:executor.executed"),
            "sim.jobs.dedup_hits": per_round(f"{engine}:executor.dedup_hits"),
            "sim.jobs.cache_hits": per_round(f"{engine}:executor.cache_hits"),
            "sim.batched.kernel_ms": replay["kernel_ms"],
            "sim.results.encode_ms": replay["encode_ms"],
            "sim.results.decode_ms": replay["decode_ms"],
            "sim.results.wire_bytes_per_point": replay["bytes_per_point"],
            "serve.store.put_ms": replay["put_ms"],
            "serve.store.get_ms": replay["get_ms"],
            **{f"serve.store.{name}": value for name, value in cache.items()},
            "serve.store.memory_hit_ratio":
                cache["memory_hits"] / lookups if lookups else 0.0,
            "serve.client.call_ms_p50":
                1000 * statistics.median(calls) if self.kind else 0.0,
            "serve.client.healthz_ms":
                1000 * statistics.median(self.healthz_s)
                if self.healthz_s else 0.0,
            "serve.remote.retries":
                statistics.fmean(r.retries for r in traced),
            "serve.service.jobs_ms": service_ms,
            "serve.service.outside_ms":
                call_ms - service_ms if self.kind == "serve" else 0.0,
            "serve.core.store_answers":
                per_round(f"{core}:service.store_answers"),
            "serve.core.coalesced": per_round(f"{core}:service.coalesced"),
            "serve.core.rejected": per_round(f"{core}:service.rejected"),
            "cluster.coordinator.jobs_ms": coordinator_ms,
            "cluster.coordinator.points_routed":
                per_round("coordinator:service.routed_points"),
            "cluster.coordinator.shard_retries":
                per_round("coordinator:service.shard_retries"),
            "cluster.worker.jobs_ms":
                1000 * per_round(f"worker:loom_worker{jobs_series}"),
            "cluster.worker.jobs_executed":
                per_round("worker:loom_worker_jobs_executed_total"),
            "cluster.worker.store_answers":
                per_round("worker:loom_worker_store_answers_total"),
            **{f"cluster.peercache.{name}": value
               for name, value in peer.items()},
            "cluster.peercache.fetch_ms":
                1000 * per_round("worker:loom_peer_cache_fetch_seconds_sum"),
            "cluster.peercache.hit_ratio":
                peer["hits"] / (peer["hits"] + peer["misses"])
                if peer["hits"] + peer["misses"] else 0.0,
            "obs.attributed_share": attributed_ms / round_ms,
            "obs.tracing_overhead":
                statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in plain),
            "error_ratio": counts.failed / counts.attempted,
        }
        log(f"traced {len(traced)} of {len(rounds)} rounds; "
            f"{len(spans)} spans")
        return metrics

    def replay(self, traced: List[Round]) -> Dict[str, float]:
        """Replay the traced rounds' results through codec, store and kernel.

        Only layers on this workload's path are replayed; the others stay 0.
        """
        out = dict.fromkeys(("kernel_ms", "encode_ms", "decode_ms",
                             "bytes_per_point", "put_ms", "get_ms"), 0.0)
        if self.kind is None:
            return out  # in process: no codec, store or batched kernel
        for r in traced:
            if self.workload == "sweep_cluster_cold":
                r.new_jobs = unique_jobs(r.batches)
        simulate_jobs_batched([j for r in traced for j in r.new_jobs])  # warm
        span = self.tracer.span
        timings = dict.fromkeys(("encode_ms", "decode_ms", "put_ms", "get_ms",
                                 "kernel_ms"), 0.0)
        total_bytes = 0
        store = SQLiteResultStore(os.path.join(self.workdir, "replay.db"))
        try:
            for r in traced:
                results = [res for _, batch in r.batches for res in batch]
                keyed = {job_key(job): res for jobs, batch in r.batches
                         for job, res in zip(jobs, batch)}
                t0 = time.perf_counter()
                with span("bench.replay.encode", results=len(results)):
                    payload = json.dumps([res.to_dict() for res in results])
                t1 = time.perf_counter()
                with span("bench.replay.decode", results=len(results)):
                    [NetworkResult.from_dict(d) for d in json.loads(payload)]
                t2 = time.perf_counter()
                with span("bench.replay.store_put", results=len(keyed)):
                    for key, res in keyed.items():
                        store.store(key, res)
                t3 = time.perf_counter()
                with span("bench.replay.store_get", results=len(keyed)):
                    for key in keyed:
                        store.load(key)
                t4 = time.perf_counter()
                with span("bench.replay.kernel", jobs=len(r.new_jobs)):
                    simulate_jobs_batched(r.new_jobs)
                t5 = time.perf_counter()
                for name, seconds in (("encode_ms", t1 - t0),
                                      ("decode_ms", t2 - t1),
                                      ("put_ms", t3 - t2), ("get_ms", t4 - t3),
                                      ("kernel_ms", t5 - t4)):
                    timings[name] += seconds
                total_bytes += len(payload.encode("utf-8"))
        finally:
            store.close()
        for name, seconds in timings.items():
            out[name] = 1000 * seconds / len(traced)
        out["bytes_per_point"] = total_bytes / sum(r.points for r in traced)
        return out

    def write_trace(self, spans: List[Span]) -> None:
        spans = spans + self.tier_spans
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{self.workload}-seed{self.args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(spans), handle)
        log(f"wrote {path}")


# -- end-to-end metrics ----------------------------------------------------------


def reference() -> float:
    """CPU seconds of a fixed piece of pure-Python work.

    It runs no code of the program, so no change to the program moves it;
    only the host's speed does.  Round CPU time is reported in units of it.
    """
    started = time.process_time()
    table: Dict[int, int] = {}
    for i in range(6000):
        table[i & 127] = table.get(i & 127, 0) + i * 3 % 7
    json.loads(json.dumps([table, [str(i) for i in range(200)]]))
    return time.process_time() - started


def end_to_end(setup_times: List[float], rounds: List[Round],
               peak_rss: float, references: List[float]) -> Dict[str, float]:
    cpu_s = statistics.median(r.cpu_s for r in rounds)
    reference_s = statistics.median(references)
    seconds = [r.seconds for r in rounds]
    calls = [c for r in rounds for c in r.calls]
    # Wall times for the log only: they move with the host's load.
    log(f"{len(rounds)} rounds: median {1000 * statistics.median(seconds):.1f}"
        f" ms wall, {1000 * cpu_s:.1f} ms CPU; {len(calls)} calls: median "
        f"{1000 * statistics.median(calls):.2f} ms; reference "
        f"{1000 * reference_s:.3f} ms CPU")
    return {
        "setup_s": statistics.median(setup_times),
        "round_cpu": cpu_s / reference_s,
        "peak_rss_mb": peak_rss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    # A terminated run still stops its tiers (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    bench = Bench(args)
    try:
        result, correct = bench.run()
    finally:
        bench.close()
    values = result["metrics"]
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    for name, metric in result["metrics"].items():
        log(f"{name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
