"""Analytic throughput metrics and a parametric runtime predictor.

Efficiency here is millions of multiply-accumulates divided by runtime in
milliseconds and by a per-design divisor, so designs with different
processing-element counts can be compared on one scale. The runtime
predictor is a two-term bound: weight streaming and multiply throughput
overlap (the slower one wins), and every instruction pays a fixed
pipeline-drain latency on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import TraceCounters, stack_trace
from .layers import LayerSpec, output_shape


@dataclass(frozen=True)
class PerfParams:
    """Design knobs for the runtime predictor and efficiency scaling.

    weights_per_clock defaults to the processing-element count: the design
    streams one weight per element per clock. efficiency_divisor is the
    per-design constant the efficiency figure is normalized by.
    """

    pe_count: int = 8
    clock_mhz: float = 299.97
    add_latency_cycles: int = 11
    weights_per_clock: int | None = None
    efficiency_divisor: int = 4

    def __post_init__(self):
        if self.weights_per_clock is None:
            object.__setattr__(self, "weights_per_clock", self.pe_count)
        for name in ("pe_count", "add_latency_cycles", "weights_per_clock",
                     "efficiency_divisor"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.clock_mhz < math.inf:
            raise ValueError("clock_mhz must be positive and finite")


def efficiency_per_pe(macs_millions: float, runtime_ms: float,
                      divisor: int) -> float:
    """Millions of multiply-accumulates per millisecond per divisor unit."""
    if runtime_ms <= 0:
        raise ValueError(f"runtime {runtime_ms} ms must be positive")
    if divisor < 1:
        raise ValueError(f"divisor {divisor} must be >= 1")
    return macs_millions / (runtime_ms * divisor)


def predict_runtime(trace: TraceCounters, params: PerfParams) -> float:
    """Predicted milliseconds for one run's trace.

    Weight streaming and multiply execution overlap, so the cycle count is
    the larger of the two, plus a fixed drain latency per instruction
    issued. Clock is in MHz, so cycles / (clock_mhz * 1000) gives ms.
    """
    stream_cycles = math.ceil(trace.weight_loads / params.weights_per_clock)
    compute_cycles = math.ceil(trace.macs_executed / params.pe_count)
    cycles = max(stream_cycles, compute_cycles) \
        + params.add_latency_cycles * trace.simd_instructions
    return cycles / (params.clock_mhz * 1000.0)


def dense_trace(layer: LayerSpec) -> TraceCounters:
    """The trace a fully dense filter bank would produce on the engine.

    Pure shape arithmetic: equals the counters from actually running the
    layer at density 1 with every filter in one stack.
    """
    if layer.kind == "conv":
        channels = layer.channels
        positions = channels * layer.kernel ** 2
    else:  # one window; every input element is its own channel
        channels = positions = layer.channels * layer.height * layer.width
    return stack_trace(layer.filters * positions, positions, channels,
                       math.prod(output_shape(layer)))
