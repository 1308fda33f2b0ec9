"""Declarative simulation-job specs and their deterministic content keys.

A :class:`SimJob` names everything needed to reproduce one
(network x accelerator x configuration) simulation without holding any live
objects: the network comes from the zoo by name (plus which paper precision
profile to attach), the accelerator from a small registry of factories keyed
by ``kind`` plus a canonical tuple of constructor options, and the
configuration is the (frozen, hashable) :class:`AcceleratorConfig` itself.

Because the spec is pure data it can be

* hashed into a deterministic *content key* (:func:`job_key`) that the result
  cache uses -- two jobs with the same key are guaranteed to produce the same
  :class:`~repro.sim.results.NetworkResult`;
* pickled across process boundaries, so a :class:`~repro.sim.jobs.executor.
  JobExecutor` can fan jobs out over a ``multiprocessing`` pool.

:func:`execute_job` is the single entry point that turns a spec back into
objects and runs the simulation; it memoises the (expensive) profiled-network
construction and the accelerator instances per process, so a batch of jobs
touching the same network pays the build cost once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.sim.results import NetworkResult

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.accelerators.base import AcceleratorConfig

__all__ = [
    "NetworkSpec",
    "AcceleratorSpec",
    "SimJob",
    "job_key",
    "spec_dict",
    "spec_json",
    "build_accelerator",
    "build_spec_network",
    "network_layer_counts",
    "network_kind_counts",
    "layer_table_cache_info",
    "layer_table_build_seconds",
    "execute_job",
    "ACCELERATOR_KINDS",
]

#: Accelerator kinds whose results do not depend on the precision profile at
#: all (bit-parallel designs).  Their cache keys are normalised so that e.g.
#: the DPNN baseline simulated for the 99% profile, or for the
#: effective-weight networks of Table 4, reuses the 100% profile's result.
_PROFILE_INSENSITIVE_KINDS = frozenset({"dpnn"})


def _loom_factory(config, options: Dict[str, object]):
    from repro.core import Loom
    from repro.quant.dynamic import DynamicPrecisionModel

    if "dynamic_precision" in options:
        options = dict(options)
        options["dynamic_precision"] = DynamicPrecisionModel(
            **dict(options["dynamic_precision"])
        )
    return Loom(config, **options)


def _dpnn_factory(config, options):
    from repro.accelerators import DPNN
    return DPNN(config, **options)


def _stripes_factory(config, options):
    from repro.accelerators import Stripes
    return Stripes(config, **options)


def _dstripes_factory(config, options):
    from repro.accelerators import DStripes
    return DStripes(config, **options)


#: Registry of accelerator factories: ``kind -> factory(config, options)``.
ACCELERATOR_KINDS = {
    "dpnn": _dpnn_factory,
    "stripes": _stripes_factory,
    "dstripes": _dstripes_factory,
    "loom": _loom_factory,
}


#: Lazily imported accelerator class per kind (kept in lockstep with
#: ACCELERATOR_KINDS; the module-level assert below enforces it).
_KIND_CLASSES = {
    "dpnn": ("repro.accelerators", "DPNN"),
    "stripes": ("repro.accelerators", "Stripes"),
    "dstripes": ("repro.accelerators", "DStripes"),
    "loom": ("repro.core", "Loom"),
}

assert set(_KIND_CLASSES) == set(ACCELERATOR_KINDS)


@functools.lru_cache(maxsize=None)
def _kind_defaults(kind: str) -> Tuple[Tuple[str, object], ...]:
    """Constructor defaults for a kind (canonicalised), for key normalisation."""
    import importlib
    import inspect

    if kind not in _KIND_CLASSES:
        raise ValueError(
            f"unknown accelerator kind {kind!r}; "
            f"available: {sorted(ACCELERATOR_KINDS)}"
        )
    module_name, class_name = _KIND_CLASSES[kind]
    cls = getattr(importlib.import_module(module_name), class_name)
    defaults = []
    for name, parameter in inspect.signature(cls.__init__).parameters.items():
        if name in ("self", "config") or parameter.default is inspect.Parameter.empty:
            continue
        defaults.append((name, _canonical_value(parameter.default)))
    return tuple(defaults)


def _canonical_value(value):
    """Normalise an option value into hashable, JSON-friendly data."""
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(sorted(
            (k, _canonical_value(v)) for k, v in asdict(value).items()
        ))
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"accelerator option value {value!r} cannot be canonicalised; "
        f"use primitives, dataclasses or mappings"
    )


@dataclass(frozen=True)
class NetworkSpec:
    """Names a zoo network with a bound paper precision profile.

    ``with_effective_weights`` attaches the Table 3 per-group effective
    weight precisions (the Table 4 evaluation mode).  ``groups`` / ``heads``
    are structural overrides forwarded to the zoo builder (ResNeXt-style
    group count for ``resnet18``, attention head count for
    ``tiny_transformer``); they change the simulated geometry, so they are
    part of the spec -- and therefore of the content key -- like everything
    else here.
    """

    name: str
    accuracy: str = "100%"
    with_effective_weights: bool = False
    groups: Optional[int] = None
    heads: Optional[int] = None


@dataclass(frozen=True)
class AcceleratorSpec:
    """Names an accelerator design: a registry ``kind`` plus constructor options.

    Use :meth:`create` rather than the raw constructor -- it canonicalises the
    options (sorted tuple of pairs, dataclasses flattened) so that two specs
    describing the same design always compare, hash and serialise equal.
    """

    kind: str
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ACCELERATOR_KINDS:
            raise ValueError(
                f"unknown accelerator kind {self.kind!r}; "
                f"available: {sorted(ACCELERATOR_KINDS)}"
            )

    @classmethod
    def create(cls, kind: str, **options) -> "AcceleratorSpec":
        defaults = dict(_kind_defaults(kind))
        canonical = tuple(
            (key, canonical_value)
            for key, canonical_value in (
                (key, _canonical_value(value))
                for key, value in sorted(options.items())
            )
            # Options pinned at their constructor default describe the same
            # design as omitting them; drop them so the specs (and therefore
            # the cache keys) coincide.
            if not (key in defaults and canonical_value == defaults[key])
        )
        return cls(kind=kind, options=canonical)

    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)


def _default_config():
    from repro.accelerators.base import AcceleratorConfig
    return AcceleratorConfig()


@dataclass(frozen=True)
class SimJob:
    """One declarative simulation: network x accelerator x configuration."""

    network: NetworkSpec
    accelerator: AcceleratorSpec
    config: "AcceleratorConfig" = field(default_factory=_default_config)


def _jsonable(value):
    """Recursively convert canonical spec data into JSON-serialisable data."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def spec_dict(job: SimJob) -> Dict[str, object]:
    """The canonical, JSON-serialisable description of a job.

    This is what gets hashed into the cache key, so *everything* that can
    change a simulation's outcome must appear here: the network identity and
    profile, the accelerator kind and constructor options, and every
    :class:`AcceleratorConfig` knob (including the DRAM channel and the
    technology parameters, which are nested dataclasses).
    """
    network = asdict(job.network)
    # Absent structural overrides hash identically to specs that predate the
    # override fields, so a warm on-disk cache stays valid for every job the
    # fields cannot affect; set overrides still change the key.
    for override in ("groups", "heads"):
        if network.get(override) is None:
            del network[override]
    if job.accelerator.kind in _PROFILE_INSENSITIVE_KINDS:
        # Bit-parallel designs ignore precision profiles entirely; normalise
        # so equivalent simulations share one cache entry.
        network["accuracy"] = "100%"
        network["with_effective_weights"] = False
    return {
        "network": network,
        "accelerator": {
            "kind": job.accelerator.kind,
            "options": _jsonable(list(job.accelerator.options)),
        },
        "config": _jsonable(job.config),
    }


#: Jobs whose canonical JSON and key stay memoised.  A bound, not an
#: option: a serve or cluster process sees an unbounded stream of distinct
#: jobs, and each entry holds about 1.5 KB (JSON text, key and memo slot),
#: so the memo stays near 6 MB at most.
_CANONICAL_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical(job: SimJob) -> Tuple[str, str]:
    text = json.dumps(spec_dict(job), sort_keys=True, separators=(",", ":"))
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_json(job: SimJob) -> str:
    """The canonical spec JSON text :func:`job_key` hashes (and the audit
    spec stores keep): built once per job, not once per use."""
    return _canonical(job)[0]


def job_key(job: SimJob) -> str:
    """Deterministic content key: sha256 over the canonical spec JSON."""
    return _canonical(job)[1]


# -- spec -> objects ----------------------------------------------------------
#
# The memo caches below are per process; forked pool workers inherit (and then
# grow) their own copies, so every process builds each profiled network and
# each accelerator at most once no matter how many jobs reference it.  The
# memoised networks and layer lists are shared across jobs and must be treated
# as read-only.


@functools.lru_cache(maxsize=None)
def build_spec_network(spec: NetworkSpec):
    """Build the zoo network named by ``spec`` with its profile attached."""
    from repro.nn import build_network
    from repro.quant import get_paper_profile

    network = build_network(spec.name, groups=spec.groups, heads=spec.heads)
    profile = get_paper_profile(
        spec.name, spec.accuracy,
        with_effective_weights=spec.with_effective_weights,
    )
    network.attach_profile(profile)
    return network


@functools.lru_cache(maxsize=None)
def _spec_layers(spec: NetworkSpec) -> tuple:
    """Resolved compute layers for a network spec (shared, read-only)."""
    return tuple(build_spec_network(spec).compute_layers())


class _LayerTableMemo:
    """Timed memo for layer tables: like ``lru_cache`` plus a build clock.

    The executor's phase accounting needs to know how much wall time a batch
    spent (re)building layer tables, which ``functools.lru_cache`` cannot
    report -- hence this hand-rolled equivalent.  ``build_seconds`` is
    cumulative; callers sample it before/after a batch and attribute the
    delta.  Double-checked locking keeps hits lock-free-ish while ensuring a
    table is built at most once per process.
    """

    def __init__(self) -> None:
        self._tables: Dict[NetworkSpec, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.builds = 0
        self.build_seconds = 0.0

    def __call__(self, spec: NetworkSpec):
        table = self._tables.get(spec)
        if table is not None:
            self.hits += 1
            return table
        from repro.sim.fastpath import build_layer_table

        with self._lock:
            table = self._tables.get(spec)
            if table is not None:
                self.hits += 1
                return table
            started = time.perf_counter()
            table = build_layer_table(_spec_layers(spec))
            self.build_seconds += time.perf_counter() - started
            self.builds += 1
            self._tables[spec] = table
            return table

    def cache_clear(self) -> None:
        with self._lock:
            self._tables.clear()


#: Column-wise layer tables for the fast-path engine (shared, read-only).
_spec_layer_table = _LayerTableMemo()


def layer_table_cache_info() -> Dict[str, int]:
    """Hit/build counters of the per-(network, profile) layer-table memo.

    ``hits`` counts table requests answered without reconstruction;
    ``builds`` counts actual :func:`~repro.sim.fastpath.build_layer_table`
    runs.  The counters are process-wide (the memo is shared by every
    executor and engine in the process) and cumulative since process start;
    :meth:`~repro.sim.jobs.executor.ExecutorStats.to_dict` surfaces them so
    sweep services can confirm repeated sweeps skip table reconstruction.
    """
    return {"hits": _spec_layer_table.hits,
            "builds": _spec_layer_table.builds}


def layer_table_build_seconds() -> float:
    """Cumulative wall seconds spent building layer tables (this process)."""
    return _spec_layer_table.build_seconds


def network_layer_counts(name: str) -> Tuple[int, int]:
    """(conv-datapath, fully-connected) compute-layer counts for a zoo network.

    MatMul layers execute on the conv datapath and count in the first entry;
    use :func:`network_kind_counts` for the three-way reporting split.
    """
    layers = _spec_layers(NetworkSpec(name))
    conv = sum(1 for lw in layers if lw.is_conv)
    return conv, len(layers) - conv


def network_kind_counts(name: str) -> Dict[str, int]:
    """Per-reporting-kind compute-layer counts (``conv``/``fc``/``matmul``)."""
    counts = {"conv": 0, "fc": 0, "matmul": 0}
    for lw in _spec_layers(NetworkSpec(name)):
        counts[lw.kind] += 1
    return counts


@functools.lru_cache(maxsize=None)
def build_accelerator(spec: AcceleratorSpec,
                      config: "Optional[AcceleratorConfig]" = None):
    """Instantiate the accelerator described by ``spec`` (memoised)."""
    factory = ACCELERATOR_KINDS[spec.kind]
    return factory(config if config is not None else _default_config(),
                   spec.options_dict())


def execute_job(job: SimJob, engine: Optional[str] = None) -> NetworkResult:
    """Run one job: build the network and accelerator, simulate every layer.

    Equivalent to :func:`repro.sim.runner.run_network` on the materialised
    objects, but with the network construction and shape resolution memoised
    per process.

    ``engine`` selects the simulation engine (``"fast"`` -- the vectorized
    closed-form path -- ``"event"``, the per-layer reference path, or
    ``"batched"``, which for a single job is the fast path: batching only
    differs for whole groups, see
    :func:`repro.sim.batched.simulate_jobs_batched`); the default follows
    :func:`repro.sim.fastpath.get_default_engine`.  All engines produce
    bit-identical results (enforced by :mod:`repro.sim.validate`), which is
    why the engine is *not* part of the job's cache key.
    """
    from repro.sim import fastpath

    accelerator = build_accelerator(job.accelerator, job.config)
    engine = fastpath.resolve_engine(engine)
    if engine in ("fast", "batched") and fastpath.supports_fast_path(accelerator):
        return fastpath.simulate_network_fast(
            accelerator,
            _spec_layer_table(job.network),
            network=job.network.name,
            clock_ghz=accelerator.config.clock_ghz,
        )
    result = NetworkResult(
        network=job.network.name,
        accelerator=accelerator.name,
        clock_ghz=accelerator.config.clock_ghz,
    )
    for layer in _spec_layers(job.network):
        result.add(accelerator.simulate_layer(layer))
    return result
