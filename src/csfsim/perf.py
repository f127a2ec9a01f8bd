"""Analytic throughput metrics and a parametric runtime predictor.

Efficiency here is millions of multiply-accumulates divided by runtime in
milliseconds and by a per-design divisor, so designs with different
processing-element counts can be compared on one scale. The runtime
predictor charges the multiplies, spread over the processing elements,
plus a fixed pipeline-drain latency per instruction. Each multiply uses
exactly one fetched weight, so weight streaming needs no term of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import TraceCounters, stack_trace
from .layers import LayerSpec, output_shape


@dataclass(frozen=True)
class PerfParams:
    """Design knobs for the runtime predictor and efficiency scaling.

    pe_count processing elements each execute one multiply per clock.
    efficiency_divisor is the per-design constant the efficiency figure
    is normalized by.
    """

    pe_count: int = 8
    clock_mhz: float = 299.97
    add_latency_cycles: int = 11
    efficiency_divisor: int = 4

    def __post_init__(self):
        for name in ("pe_count", "add_latency_cycles", "efficiency_divisor"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a clock whose kHz value overflows would price every layer at 0 ms
        if not 0 < self.clock_mhz * 1000.0 < math.inf:
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

    ceil(macs_executed / pe_count) cycles of multiplies, plus a fixed
    drain latency per instruction issued. Clock is in MHz, so
    cycles / (clock_mhz * 1000) gives ms.
    """
    cycles = math.ceil(trace.macs_executed / params.pe_count) \
        + params.add_latency_cycles * trace.simd_instructions
    ms = cycles / (params.clock_mhz * 1000.0)
    if ms == math.inf:
        raise ValueError(f"predicted runtime overflows at clock_mhz "
                         f"{params.clock_mhz}")
    return ms


def dense_trace(layer: LayerSpec) -> TraceCounters:
    """The trace a fully dense filter bank would produce on the engine.

    Pure shape arithmetic: equals the counters from actually running the
    layer at density 1 with every filter in one stack.
    """
    positions = math.prod(layer.bank_shape[1:])
    # one fc window; every input element is its own channel
    channels = layer.channels if layer.kind == "conv" else positions
    return stack_trace(layer.filters * positions, positions, channels,
                       math.prod(output_shape(layer)))
