"""Tests for the batched sweep engine and its result transport.

The batched engine's whole contract is *bit-exactness at sweep scale*: any
mix of jobs -- ragged network sizes, heterogeneous design points, exotic
fallbacks -- must come back field-for-field equal to running the per-job
fast path (and therefore the event reference) job by job, in submission
order.  The property-based tests generate random job mixes against that
contract; the directed tests pin the edges (empty batch, single job,
cross-design merging, fallback ordering) and the shared-memory transport's
round-trip + degradation behaviour.
"""

from __future__ import annotations

import pytest

from repro.accelerators.base import AcceleratorConfig
from repro.sim.batched import (
    _design_signature,
    simulate_jobs_batched,
    simulate_tables_batched,
    stack_layer_tables,
)
from repro.sim.fastpath import simulate_layers_fast
from repro.sim.jobs import spec as jobs_spec
from repro.sim.jobs.executor import JobExecutor
from repro.sim.jobs.spec import (
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
    build_accelerator,
    execute_job,
)
from repro.sim.jobs.transport import pack_results, unpack_results
from repro.sim.validate import validate_jobs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _jobs_equal(batched_results, reference_results):
    """Field-for-field equality across whole result lists."""
    assert len(batched_results) == len(reference_results)
    for batched, reference in zip(batched_results, reference_results):
        assert batched.network == reference.network
        assert batched.accelerator == reference.accelerator
        assert batched.clock_ghz == reference.clock_ghz
        assert len(batched.layers) == len(reference.layers)
        for got, want in zip(batched.layers, reference.layers):
            assert got == want  # dataclass ==: every field, exact floats


def _reference(jobs):
    return [execute_job(job, engine="fast") for job in jobs]


#: Networks with different layer counts and kinds (conv-only, conv+fc,
#: matmul-bearing, effective-weights) -- the ragged/mixed axis.
_NETWORKS = (
    NetworkSpec("alexnet", "100%"),
    NetworkSpec("alexnet", "99%"),
    NetworkSpec("nin", "100%"),
    NetworkSpec("alexnet", "100%", with_effective_weights=True),
    NetworkSpec("tiny_transformer", "100%"),
)

#: Design points across all four stock kinds, Loom serial widths and flag
#: variants, plus scale/memory/clock spreads -- the grouping/merging axis.
_DESIGNS = (
    (AcceleratorSpec.create("dpnn"), AcceleratorConfig()),
    (AcceleratorSpec.create("stripes"), AcceleratorConfig(equivalent_macs=64)),
    (AcceleratorSpec.create("dstripes"), AcceleratorConfig()),
    (AcceleratorSpec.create("loom"), AcceleratorConfig()),
    (AcceleratorSpec.create("loom"),
     AcceleratorConfig(equivalent_macs=256, clock_ghz=1.2)),
    (AcceleratorSpec.create("loom"),
     AcceleratorConfig(am_capacity_bytes=512 * 1024)),
    (AcceleratorSpec.create("loom", bits_per_cycle=2), AcceleratorConfig()),
    (AcceleratorSpec.create("loom", bits_per_cycle=4),
     AcceleratorConfig(equivalent_macs=64)),
    (AcceleratorSpec.create("loom", use_effective_weight_precision=True),
     AcceleratorConfig()),
    (AcceleratorSpec.create("loom", use_cascading=False,
                            replicate_filters=True), AcceleratorConfig()),
)


class TestStacking:
    def test_ragged_stack_shapes(self):
        tables = [
            jobs_spec._spec_layer_table(NetworkSpec("alexnet", "100%")),
            jobs_spec._spec_layer_table(NetworkSpec("nin", "100%")),
        ]
        batched = stack_layer_tables(tables)
        assert batched.jobs == 2
        assert batched.lengths == (len(tables[0]), len(tables[1]))
        assert batched.width == max(batched.lengths)
        assert batched.mask.shape == (2, batched.width)
        assert batched.mask.sum() == sum(batched.lengths)
        # The dense flat view is the member columns concatenated end to end.
        assert len(batched.flat) == sum(batched.lengths)
        assert batched.flat.names == tables[0].names + tables[1].names
        assert len(batched.conv) + len(batched.fc) == len(batched.flat)
        # Padded cells keep the closed forms finite and out of the conv set.
        padded = ~batched.mask.ravel()
        assert not batched.is_conv.ravel()[padded].any()
        assert (batched.outputs.ravel()[padded] == 1).all()

    def test_empty_stack(self):
        batched = stack_layer_tables([])
        assert batched.jobs == 0 and batched.width == 0
        assert len(batched.flat) == 0
        assert simulate_tables_batched(build_accelerator(
            AcceleratorSpec.create("loom"), AcceleratorConfig()), []) == []

    def test_tables_pass_equals_per_table_fast_path(self):
        tables = [jobs_spec._spec_layer_table(spec) for spec in _NETWORKS[:3]]
        accelerator = build_accelerator(AcceleratorSpec.create("loom"),
                                        AcceleratorConfig())
        batched_lists = simulate_tables_batched(accelerator, tables)
        for table, layers in zip(tables, batched_lists):
            assert layers == simulate_layers_fast(accelerator, table)


class TestBatchedVsPerJob:
    def test_empty_batch(self):
        assert simulate_jobs_batched([]) == []

    def test_single_job_batch(self):
        job = SimJob(network=_NETWORKS[0], accelerator=_DESIGNS[3][0],
                     config=_DESIGNS[3][1])
        _jobs_equal(simulate_jobs_batched([job]), _reference([job]))

    def test_full_design_matrix_bit_exact(self):
        jobs = [SimJob(network=network, accelerator=spec, config=config)
                for network in _NETWORKS
                for spec, config in _DESIGNS]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))

    def test_duplicate_jobs_allowed(self):
        job = SimJob(network=_NETWORKS[2], accelerator=_DESIGNS[6][0],
                     config=_DESIGNS[6][1])
        _jobs_equal(simulate_jobs_batched([job, job, job]),
                    _reference([job, job, job]))

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(
        st.tuples(st.integers(0, len(_NETWORKS) - 1),
                  st.integers(0, len(_DESIGNS) - 1)),
        min_size=0, max_size=8,
    ))
    def test_random_ragged_mixes_scatter_exactly(self, picks):
        jobs = [
            SimJob(network=_NETWORKS[n], accelerator=_DESIGNS[d][0],
                   config=_DESIGNS[d][1])
            for n, d in picks
        ]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))

    def test_exotic_subclass_falls_back_in_order(self, monkeypatch):
        from repro.core import Loom

        class TunedLoom(Loom):
            def compute_cycles(self, layer):
                return super().compute_cycles(layer) * 2.0

        monkeypatch.setitem(jobs_spec.ACCELERATOR_KINDS, "tunedloom",
                            lambda config, options: TunedLoom(config))
        monkeypatch.setitem(jobs_spec._KIND_CLASSES, "tunedloom",
                            ("repro.core", "Loom"))
        exotic = SimJob(network=_NETWORKS[0],
                        accelerator=AcceleratorSpec("tunedloom"))
        stock = SimJob(network=_NETWORKS[0], accelerator=_DESIGNS[3][0],
                       config=_DESIGNS[3][1])
        jobs = [stock, exotic, stock]
        results = simulate_jobs_batched(jobs)
        _jobs_equal(results, _reference(jobs))
        # The exotic result really ran the overridden hook (2x cycles).
        assert results[1].total_cycles() == pytest.approx(
            2.0 * results[0].total_cycles())


class TestDesignSignatures:
    def test_scale_variants_share_a_plane(self):
        spec = AcceleratorSpec.create("loom")
        small = build_accelerator(spec, AcceleratorConfig(equivalent_macs=64))
        large = build_accelerator(spec, AcceleratorConfig(equivalent_macs=512))
        assert _design_signature(small) == _design_signature(large)

    def test_serial_width_variants_do_not(self):
        one = build_accelerator(AcceleratorSpec.create("loom"),
                                AcceleratorConfig())
        two = build_accelerator(AcceleratorSpec.create("loom",
                                                       bits_per_cycle=2),
                                AcceleratorConfig())
        assert _design_signature(one) != _design_signature(two)

    def test_kind_variants_do_not(self):
        loom = build_accelerator(AcceleratorSpec.create("loom"),
                                 AcceleratorConfig())
        stripes = build_accelerator(AcceleratorSpec.create("stripes"),
                                    AcceleratorConfig())
        assert _design_signature(loom) != _design_signature(stripes)


class TestValidateJobs:
    def test_batched_candidate_against_event_reference(self):
        jobs = [SimJob(network=_NETWORKS[0], accelerator=spec, config=config)
                for spec, config in _DESIGNS[:4]]
        report = validate_jobs(jobs, engine="batched")
        assert report.ok
        assert len(report.cases) == len(jobs)
        assert report.layers_compared == sum(
            len(r.layers) for r in _reference(jobs))

    def test_empty_job_list(self):
        report = validate_jobs([], engine="batched")
        assert report.ok and report.cases == []


class TestTransport:
    def _results(self):
        jobs = [SimJob(network=network, accelerator=_DESIGNS[3][0],
                       config=_DESIGNS[3][1])
                for network in _NETWORKS[:3]]
        return _reference(jobs)

    def test_shm_round_trip_is_bit_identical(self):
        results = self._results()
        payload = pack_results(results)
        unpacked, used_shm = unpack_results(payload)
        _jobs_equal(unpacked, results)
        if payload["format"] == "shm":  # shared memory available here
            assert used_shm
            # The parent unlinked the block; a second attach must fail.
            from multiprocessing import shared_memory
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=payload["shm_name"])

    def test_extra_fields_ride_the_shm_frame(self):
        # The frame carries non-empty ``extra`` dicts in its metadata, so
        # they no longer force the pickle fallback.
        results = self._results()
        results[0].layers[0].extra["note"] = 1.0
        try:
            payload = pack_results(results)
            unpacked, used_shm = unpack_results(payload)
            assert used_shm == (payload["format"] == "shm")
            _jobs_equal(unpacked, results)
            assert unpacked[0].layers[0].extra == {"note": 1.0}
            assert unpacked[0].layers[1].extra == {}
        finally:
            results[0].layers[0].extra.clear()

    def test_unavailable_shm_degrades_to_pickle(self, monkeypatch):
        import repro.sim.jobs.transport as transport

        monkeypatch.setattr(transport, "_try_create_shm", lambda n: None)
        results = self._results()
        payload = pack_results(results)
        assert payload["format"] == "pickle"
        unpacked, used_shm = unpack_results(payload)
        assert not used_shm
        _jobs_equal(unpacked, results)

    def test_empty_result_list(self):
        payload = pack_results([])
        unpacked, _ = unpack_results(payload)
        assert unpacked == []


class TestExecutorIntegration:
    def _jobs(self):
        # alexnet vs nin (not the 100%/99% pair: DPNN ignores precision
        # profiles, so those two would collapse to one cache key).
        return [SimJob(network=network, accelerator=spec, config=config)
                for network in (_NETWORKS[0], _NETWORKS[2])
                for spec, config in _DESIGNS[:5]]

    def test_batched_engine_serial(self):
        jobs = self._jobs()
        with JobExecutor(engine="batched") as executor:
            _jobs_equal(executor.run(jobs), _reference(jobs))
            assert executor.stats.batched_jobs == len(jobs)

    def test_batched_engine_parallel_uses_shm_transport(self):
        jobs = self._jobs()
        with JobExecutor(workers=2, engine="batched") as executor:
            _jobs_equal(executor.run(jobs), _reference(jobs))
            stats = executor.stats.to_dict()
            assert stats["batched_jobs"] == len(jobs)
            # One packed payload per worker chunk (pickle fallback would
            # leave this at 0 on platforms without shared memory).
            assert stats["shm_transports"] in (0, 2)

    def test_per_job_parallel_uses_shm_transport(self):
        jobs = self._jobs()
        with JobExecutor(workers=2) as executor:
            _jobs_equal(executor.run(jobs), _reference(jobs))
            assert executor.stats.batched_jobs == 0
            assert executor.stats.shm_transports >= 0  # platform-dependent

    def test_run_engine_overrides_executor_engine(self):
        jobs = self._jobs()
        with JobExecutor(engine="event") as executor:
            executor.run(jobs, engine="batched")
            assert executor.stats.batched_jobs == len(jobs)

    def test_cache_answers_second_batched_run(self):
        jobs = self._jobs()
        with JobExecutor(engine="batched") as executor:
            executor.run(jobs)
            executor.run(jobs)
            assert executor.stats.executed == len(jobs)
            assert executor.stats.cache_hits == len(jobs)
            assert executor.stats.max_executions_per_key == 1

    def test_stats_dict_exposes_new_counters(self):
        stats = JobExecutor().stats.to_dict()
        for key in ("batched_jobs", "shm_transports",
                    "layer_table_hits", "layer_table_builds"):
            assert key in stats

    def test_unknown_engine_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown engine"):
            JobExecutor(engine="warp")
        with JobExecutor() as executor:
            with pytest.raises(ValueError, match="unknown engine"):
                executor.run([], engine="warp")


class TestCLIEngineSelection:
    def test_validate_accepts_batched_engine(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["validate", "--engine", "batched"])
        assert args.validate_engine == "batched"

    def test_validate_rejects_unknown_engine(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["validate", "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err

    def test_global_engine_accepts_batched(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--engine", "batched", "networks"])
        assert args.engine == "batched"

    def test_global_engine_rejects_unknown(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--engine", "warp", "networks"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err
