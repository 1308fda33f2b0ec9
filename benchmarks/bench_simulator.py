"""Micro-benchmarks of the simulator itself (not a paper artefact).

These track the cost of the building blocks the table/figure harnesses are
made of, so regressions in the models show up independently of the
experiment-level numbers: per-network accelerator simulation, the vectorized
fast-path engine vs the per-layer reference engine, the functional bit-serial
engine, the event-driven tile simulator and the dynamic-precision
measurement.

Script mode is the CI benchmark gate::

    python benchmarks/bench_simulator.py \
        --output BENCH_simulator.json \
        --check benchmarks/BENCH_baseline_simulator.json

measures the fast-vs-event layer-simulation speedup over the benchmark
matrix, writes the results as JSON, asserts the >= 5x ISSUE target, and --
when given a committed baseline -- fails if the measured speedup regressed by
more than 20%.  The gate compares the *dimensionless speedup ratio* rather
than wall-clock seconds so it is robust on noisy shared runners.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.accelerators import DPNN, DStripes, Stripes
from repro.core import Loom
from repro.core.scheduler import LoomGeometry, schedule_conv_layer
from repro.core.serial_engine import bit_serial_fc
from repro.core.tile import LoomTileSimulator
from repro.experiments.common import build_profiled_network
from repro.quant.dynamic import DynamicPrecisionModel
from repro.sim import run_network
from repro.sim.fastpath import build_layer_table, simulate_layers_fast
from repro.workloads.synthetic import SyntheticTensorGenerator

#: Minimum acceptable fast-vs-event layer-simulation speedup (the ISSUE's
#: acceptance criterion); the CI gate also compares against the committed
#: baseline with a 20% tolerance.
SPEEDUP_FLOOR = 5.0

#: Fraction of the baseline speedup the measured speedup may lose before the
#: regression gate fails (0.20 = "fails on >20% slowdown").
REGRESSION_TOLERANCE = 0.20

#: Maximum acceptable slowdown from leaving tracing enabled (the repro.obs
#: spans are per-batch/per-phase, never per-layer, so the executor path must
#: stay within 5% of the spans-disabled floor).
TRACING_OVERHEAD_LIMIT = 1.05

#: Spans opened to price one span.  The batch the ratio is taken over lasts
#: about a millisecond, too short to time a 5% difference on directly; the
#: overhead is therefore priced as spans-per-batch x per-span cost, and
#: this many spans resolve the per-span cost well above timer noise.
TRACING_OVERHEAD_SPANS = 20000

_BENCH_NETWORKS = ("alexnet", "googlenet", "vgg19")


def _bench_accelerators():
    return (
        ("dpnn", DPNN()),
        ("stripes", Stripes()),
        ("dstripes", DStripes()),
        ("loom-1b", Loom(bits_per_cycle=1)),
        ("loom-2b", Loom(bits_per_cycle=2)),
        ("loom-4b", Loom(bits_per_cycle=4)),
    )


def _best_of(repeats, task):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - start)
    return best


def measure_fastpath(repeats: int = 5) -> dict:
    """Time fast-path vs per-layer reference simulation over the matrix.

    Also cross-checks that the two engines produced identical layer results
    on every configuration, so a benchmark run doubles as a validation run.
    """
    configs = []
    event_total = 0.0
    fast_total = 0.0
    layers_simulated = 0
    for network_name in _BENCH_NETWORKS:
        network = build_profiled_network(network_name, "100%")
        layers = network.compute_layers()
        table = build_layer_table(layers)
        for label, accelerator in _bench_accelerators():
            reference = [accelerator.simulate_layer(layer) for layer in layers]
            fast = simulate_layers_fast(accelerator, table)
            if ([dataclasses.asdict(r) for r in reference]
                    != [dataclasses.asdict(r) for r in fast]):
                raise AssertionError(
                    f"engines disagree on {network_name}/{label}; "
                    f"run `loom-repro validate`"
                )
            event_s = _best_of(repeats, lambda: [
                accelerator.simulate_layer(layer) for layer in layers
            ])
            fast_s = _best_of(repeats, lambda:
                              simulate_layers_fast(accelerator, table))
            configs.append({
                "network": network_name,
                "accelerator": label,
                "layers": len(layers),
                "event_s": event_s,
                "fast_s": fast_s,
                "speedup": event_s / fast_s,
            })
            event_total += event_s
            fast_total += fast_s
            layers_simulated += len(layers)
    return {
        "benchmark": "simulator-fastpath",
        "networks": list(_BENCH_NETWORKS),
        "accelerators": [label for label, _ in _bench_accelerators()],
        "layers_simulated": layers_simulated,
        "configs": configs,
        "event_total_s": event_total,
        "fast_total_s": fast_total,
        "speedup": event_total / fast_total,
    }


def format_fastpath(measured: dict) -> str:
    lines = ["== layer simulation: vectorized fast path vs per-layer "
             "reference =="]
    for entry in measured["configs"]:
        lines.append(
            f"{entry['network']:<10s} {entry['accelerator']:<10s} "
            f"{entry['layers']:>3d} layers  "
            f"event {entry['event_s'] * 1e3:>8.3f} ms  "
            f"fast {entry['fast_s'] * 1e3:>8.3f} ms  "
            f"{entry['speedup']:>6.2f}x"
        )
    lines.append(
        f"{'TOTAL':<10s} {'':<10s} {measured['layers_simulated']:>3d} layers  "
        f"event {measured['event_total_s'] * 1e3:>8.3f} ms  "
        f"fast {measured['fast_total_s'] * 1e3:>8.3f} ms  "
        f"{measured['speedup']:>6.2f}x"
    )
    return "\n".join(lines)


def measure_tracing_overhead(repeats: int = 5) -> dict:
    """Price enabling tracing on the executor path, as a ratio.

    The guard behind "tracing is on by default": the executor opens one
    span per batch/phase (run, cache lookup, simulate, scatter), never one
    per layer, so enabling them must cost within
    ``TRACING_OVERHEAD_LIMIT`` of the disabled floor.  The ratio is
    ``(batch + spans_per_batch * span_cost) / batch``: ``batch`` is the
    best spans-disabled time of the batch, ``spans_per_batch`` is counted
    by recording one traced run, and ``span_cost`` is the enabled minus
    the disabled cost of one span, timed over ``TRACING_OVERHEAD_SPANS``
    spans.  A span per layer, or a costlier span, moves the ratio past the
    limit.
    """
    from repro.obs import SpanRecorder, Tracer, get_tracer, set_tracer
    from repro.sim.jobs import (
        AcceleratorSpec,
        JobExecutor,
        NetworkSpec,
        SimJob,
    )

    def run_batch():
        with JobExecutor(cache=None) as executor:
            executor.run([
                SimJob(network=NetworkSpec("alexnet"),
                       accelerator=AcceleratorSpec.create(label))
                for label in ("dpnn", "loom", "dstripes")
            ])

    pricing = Tracer(service="bench")

    def open_spans():
        span = pricing.span
        for _ in range(TRACING_OVERHEAD_SPANS):
            with span("bench.span", jobs=3):
                pass

    tracer = get_tracer()
    was_enabled = tracer.enabled
    try:
        run_batch()  # warm the spec/layer-table memos
        tracer.set_enabled(False)
        disabled_s = _best_of(repeats, run_batch)
    finally:
        tracer.set_enabled(was_enabled)
    counter = Tracer(recorder=SpanRecorder(capacity=1_000_000))
    previous = set_tracer(counter)
    try:
        run_batch()
    finally:
        set_tracer(previous)
    spans_per_batch = len(counter.recorder)
    span_on_s = _best_of(repeats, open_spans) / TRACING_OVERHEAD_SPANS
    pricing.set_enabled(False)
    span_off_s = _best_of(repeats, open_spans) / TRACING_OVERHEAD_SPANS
    span_cost_s = max(0.0, span_on_s - span_off_s)
    enabled_s = disabled_s + spans_per_batch * span_cost_s
    return {
        "benchmark": "tracing-overhead",
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "spans_per_batch": spans_per_batch,
        "span_cost_s": span_cost_s,
        "overhead_ratio": enabled_s / disabled_s,
    }


def tracing_overhead_ok(measured: dict) -> bool:
    """The 5% acceptance test for :func:`measure_tracing_overhead`."""
    return measured["overhead_ratio"] <= TRACING_OVERHEAD_LIMIT


def format_tracing_overhead(measured: dict) -> str:
    return (
        "== tracing overhead: executor batch with spans disabled vs "
        "enabled ==\n"
        f"disabled {measured['disabled_s'] * 1e3:>8.3f} ms  "
        f"enabled {measured['enabled_s'] * 1e3:>8.3f} ms  "
        f"({measured['spans_per_batch']} spans x "
        f"{measured['span_cost_s'] * 1e6:.2f} us)  "
        f"ratio {measured['overhead_ratio']:>5.3f} "
        f"(limit {TRACING_OVERHEAD_LIMIT:.2f})"
    )


def check_against_baseline(measured: dict, baseline: dict,
                           tolerance: float = REGRESSION_TOLERANCE) -> str:
    """Raise if the measured speedup regressed > ``tolerance`` vs baseline."""
    baseline_speedup = baseline["speedup"]
    measured_speedup = measured["speedup"]
    floor = baseline_speedup * (1.0 - tolerance)
    verdict = (
        f"baseline speedup {baseline_speedup:.2f}x, measured "
        f"{measured_speedup:.2f}x (gate: >= {floor:.2f}x)"
    )
    if measured_speedup < floor:
        raise AssertionError(f"benchmark regression: {verdict}")
    return verdict


# -- pytest-benchmark entry points --------------------------------------------


def test_bench_run_network_dpnn(benchmark):
    network = build_profiled_network("googlenet", "100%")
    dpnn = DPNN()
    result = benchmark(run_network, dpnn, network)
    assert len(result.layers) == 58


def test_bench_run_network_loom(benchmark):
    network = build_profiled_network("googlenet", "100%")
    loom = Loom()
    result = benchmark(run_network, loom, network)
    assert result.total_cycles() > 0


def test_bench_fastpath_engine(benchmark):
    network = build_profiled_network("googlenet", "100%")
    table = build_layer_table(network.compute_layers())
    loom = Loom()
    result = benchmark(simulate_layers_fast, loom, table)
    assert len(result) == 58


def test_bench_fastpath_speedup(artefacts):
    measured = measure_fastpath(repeats=3)
    artefacts["simulator-fastpath"] = format_fastpath(measured)
    assert measured["speedup"] >= SPEEDUP_FLOOR, (
        f"fast-path speedup {measured['speedup']:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x target"
    )


def test_bench_tracing_overhead(artefacts):
    measured = measure_tracing_overhead(repeats=3)
    artefacts["tracing-overhead"] = format_tracing_overhead(measured)
    assert tracing_overhead_ok(measured), (
        f"tracing overhead {measured['overhead_ratio']:.3f}x exceeds the "
        f"{TRACING_OVERHEAD_LIMIT:.2f}x limit "
        f"(disabled {measured['disabled_s'] * 1e3:.3f} ms, "
        f"enabled {measured['enabled_s'] * 1e3:.3f} ms)"
    )


def test_bench_functional_bit_serial_fc(benchmark):
    rng = np.random.default_rng(0)
    acts = rng.integers(0, 2 ** 8, size=256)
    weights = rng.integers(-2 ** 7, 2 ** 7, size=(32, 256))
    result = benchmark(bit_serial_fc, acts, weights, 8, 8)
    assert np.array_equal(result.outputs, weights @ acts)


def test_bench_tile_simulator_conv(benchmark):
    from repro.nn.layers import Conv2D, TensorShape
    from repro.nn.network import LayerWithPrecision
    from repro.quant.precision import LayerPrecision
    layer = Conv2D(name="conv", out_channels=32, kernel=3, padding=1)
    in_shape = TensorShape(16, 8, 8)
    lw = LayerWithPrecision(layer=layer, input_shape=in_shape,
                            output_shape=layer.output_shape(in_shape),
                            precision=LayerPrecision(4, 5))
    schedule = schedule_conv_layer(lw, LoomGeometry(equivalent_macs=16))
    simulator = LoomTileSimulator()
    result = benchmark(simulator.run_conv, schedule)
    assert result.cycles == schedule.total_cycles


def test_bench_dynamic_precision_measurement(benchmark):
    generator = SyntheticTensorGenerator(seed=0)
    codes = generator.activations(65536, precision_bits=9)
    model = DynamicPrecisionModel()
    measured = benchmark(model.measured_activation_bits, codes, 9)
    assert 1.0 <= measured <= 9.0


# -- script mode (the CI benchmark gate) --------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the fast-path engine speedup and gate it "
                    "against a committed baseline.",
    )
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the measurements as JSON to PATH")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail if the speedup regressed >20%% vs this "
                             "baseline JSON")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per configuration "
                             "(best-of; default: 5)")
    args = parser.parse_args(argv)
    from repro.obs import get_tracer

    # The baseline-gated numbers are measured spans-disabled: the gate
    # tracks the engines, and the separate overhead guard tracks tracing.
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.set_enabled(False)
    try:
        measured = measure_fastpath(repeats=args.repeats)
    finally:
        tracer.set_enabled(was_enabled)
    print(format_fastpath(measured))
    overhead = measure_tracing_overhead(repeats=args.repeats)
    print(format_tracing_overhead(overhead))
    measured["tracing_overhead"] = overhead
    # Write the measurements before any gate can fail: when the gate trips
    # is exactly when the per-config timings are needed for diagnosis.
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if measured["speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: speedup {measured['speedup']:.2f}x is below the "
              f"{SPEEDUP_FLOOR:.0f}x floor", file=sys.stderr)
        return 1
    if not tracing_overhead_ok(overhead):
        print(f"FAIL: tracing overhead {overhead['overhead_ratio']:.3f}x "
              f"exceeds the {TRACING_OVERHEAD_LIMIT:.2f}x limit",
              file=sys.stderr)
        return 1
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        try:
            print(check_against_baseline(measured, baseline))
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
