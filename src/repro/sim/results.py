"""Result dataclasses for accelerator simulations.

Every accelerator model in this repository produces a :class:`LayerResult`
per compute layer, which records execution cycles, memory traffic and energy.
:class:`NetworkResult` aggregates them and :func:`compare` produces the
relative speedup / energy-efficiency numbers that the paper's tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "LayerResult",
    "NetworkResult",
    "ComparisonResult",
    "compare",
    "combine_layer_results",
]


@dataclass
class LayerResult:
    """What one accelerator did for one layer.

    Attributes
    ----------
    layer_name:
        Name of the layer.
    layer_kind:
        ``"conv"``, ``"fc"`` or ``"matmul"`` (attention-style work; it runs
        on the conv datapath but is reported distinctly).
    cycles:
        Execution cycles for this layer (compute- or memory-bound, whichever
        dominates; ``compute_cycles`` and ``memory_cycles`` keep the split).
    compute_cycles / memory_cycles:
        Cycles the datapath needed and cycles the off-chip interface needed.
    energy_pj:
        Total energy in picojoules.
    weight_bits_read / activation_bits_read / activation_bits_written:
        Memory traffic in bits (already scaled by the storage precision for
        designs that store data bit-interleaved).
    macs:
        Useful multiply-accumulate operations the layer required.
    utilization:
        Fraction of the datapath's peak throughput actually used.
    extra:
        Model-specific diagnostics (e.g. average dynamic precisions).
    """

    layer_name: str
    layer_kind: str
    cycles: float
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    energy_pj: float = 0.0
    weight_bits_read: float = 0.0
    activation_bits_read: float = 0.0
    activation_bits_written: float = 0.0
    macs: int = 0
    utilization: float = 1.0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layer_kind not in ("conv", "fc", "matmul"):
            raise ValueError(
                f"layer_kind must be 'conv', 'fc' or 'matmul', "
                f"got {self.layer_kind!r}"
            )
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")
        if self.compute_cycles == 0.0 and self.memory_cycles == 0.0:
            self.compute_cycles = self.cycles

    @property
    def total_traffic_bits(self) -> float:
        return (self.weight_bits_read + self.activation_bits_read
                + self.activation_bits_written)

    @property
    def is_conv(self) -> bool:
        return self.layer_kind == "conv"

    @property
    def is_fc(self) -> bool:
        return self.layer_kind == "fc"

    @property
    def is_matmul(self) -> bool:
        return self.layer_kind == "matmul"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (:func:`repro.sim.codec.layer_to_dict`)."""
        from repro.sim.codec import layer_to_dict

        return layer_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LayerResult":
        return cls(**data)


@dataclass
class NetworkResult:
    """Aggregated result of running one network on one accelerator."""

    network: str
    accelerator: str
    layers: List[LayerResult] = field(default_factory=list)
    clock_ghz: float = 1.0

    def add(self, result: LayerResult) -> None:
        self.layers.append(result)

    # -- selections ----------------------------------------------------------

    def select(self, kind: Optional[str] = None) -> List[LayerResult]:
        """Layers of the requested kind (``"conv"``, ``"fc"`` or ``None`` for all)."""
        if kind is None:
            return list(self.layers)
        return [lr for lr in self.layers if lr.layer_kind == kind]

    # -- aggregates ----------------------------------------------------------

    def total_cycles(self, kind: Optional[str] = None) -> float:
        return sum(lr.cycles for lr in self.select(kind))

    def total_energy_pj(self, kind: Optional[str] = None) -> float:
        return sum(lr.energy_pj for lr in self.select(kind))

    def total_traffic_bits(self, kind: Optional[str] = None) -> float:
        return sum(lr.total_traffic_bits for lr in self.select(kind))

    def total_macs(self, kind: Optional[str] = None) -> int:
        return sum(lr.macs for lr in self.select(kind))

    def execution_time_s(self, kind: Optional[str] = None) -> float:
        """Execution time in seconds at the configured clock."""
        return self.total_cycles(kind) / (self.clock_ghz * 1e9)

    def frames_per_second(self, kind: Optional[str] = None) -> float:
        time_s = self.execution_time_s(kind)
        if time_s <= 0:
            return float("inf")
        return 1.0 / time_s

    def average_utilization(self, kind: Optional[str] = None) -> float:
        """Cycle-weighted average datapath utilisation."""
        layers = self.select(kind)
        total = sum(lr.cycles for lr in layers)
        if total <= 0:
            return 1.0
        return sum(lr.utilization * lr.cycles for lr in layers) / total

    def layer(self, name: str) -> LayerResult:
        for lr in self.layers:
            if lr.layer_name == name:
                return lr
        raise KeyError(f"no layer result named {name!r}")

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (:func:`repro.sim.codec.network_to_dict`)."""
        from repro.sim.codec import network_to_dict

        return network_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkResult":
        from repro.sim.codec import network_from_dict

        return network_from_dict(data)


@dataclass(frozen=True)
class ComparisonResult:
    """Relative performance and energy efficiency of one design versus a baseline.

    ``speedup`` is baseline time / design time (higher is better);
    ``energy_efficiency`` is baseline energy / design energy (higher is
    better), matching the paper's "Perf" and "Eff" columns.
    """

    network: str
    design: str
    baseline: str
    kind: Optional[str]
    speedup: float
    energy_efficiency: float
    design_cycles: float
    baseline_cycles: float
    design_energy_pj: float
    baseline_energy_pj: float


def compare(design: NetworkResult, baseline: NetworkResult,
            kind: Optional[str] = None) -> ComparisonResult:
    """Compare a design against a baseline over the selected layer kind."""
    if design.network != baseline.network:
        raise ValueError(
            f"cannot compare results for different networks: "
            f"{design.network!r} vs {baseline.network!r}"
        )
    design_cycles = design.total_cycles(kind)
    baseline_cycles = baseline.total_cycles(kind)
    design_energy = design.total_energy_pj(kind)
    baseline_energy = baseline.total_energy_pj(kind)
    speedup = baseline_cycles / design_cycles if design_cycles > 0 else float("inf")
    eff = baseline_energy / design_energy if design_energy > 0 else float("inf")
    return ComparisonResult(
        network=design.network,
        design=design.accelerator,
        baseline=baseline.accelerator,
        kind=kind,
        speedup=speedup,
        energy_efficiency=eff,
        design_cycles=design_cycles,
        baseline_cycles=baseline_cycles,
        design_energy_pj=design_energy,
        baseline_energy_pj=baseline_energy,
    )


def combine_layer_results(name: str, results: Iterable[LayerResult],
                          kind: str = "conv") -> LayerResult:
    """Merge several layer results into one (used for grouped/cascaded layers)."""
    results = list(results)
    if not results:
        raise ValueError("cannot combine an empty result list")
    return LayerResult(
        layer_name=name,
        layer_kind=kind,
        cycles=sum(r.cycles for r in results),
        compute_cycles=sum(r.compute_cycles for r in results),
        memory_cycles=sum(r.memory_cycles for r in results),
        energy_pj=sum(r.energy_pj for r in results),
        weight_bits_read=sum(r.weight_bits_read for r in results),
        activation_bits_read=sum(r.activation_bits_read for r in results),
        activation_bits_written=sum(r.activation_bits_written for r in results),
        macs=sum(r.macs for r in results),
        utilization=(
            sum(r.utilization * r.cycles for r in results)
            / max(1e-12, sum(r.cycles for r in results))
        ),
    )
