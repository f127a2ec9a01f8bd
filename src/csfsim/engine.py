"""Streaming execution of compressed filter stacks.

One instruction processes a whole kernel window for one channel at one
output coordinate: each of the window's weight positions streams in a
single input value, and every nonzero weight at that position multiplies
it into the register of the filter it belongs to. Registers are zeroed at
the start of the instruction and flushed into the output buffer at the end,
so each output element accumulates one float32 partial sum per channel.

`EngineContext.simd3d_step` is the literal instruction-level walk, one
scalar multiply-accumulate at a time. `run_conv` and `run_fc` compute the
same float32 sums in the same per-element order with vectorized sweeps
across output coordinates and filters, so the two paths agree bit for bit.

Every run also tallies what the hardware would have to move: multiplies
executed, weight and index fetches (one each per multiply), feature and
per-position count fetches, and instructions issued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CsfStream, encode_csf, stack_filters
from .dense import _window_plane, as_f32, pad_channels
from .layers import LayerSpec, output_shape


@dataclass
class TraceCounters:
    """Memory-traffic and work tallies for one or more engine runs."""

    macs_executed: int = 0
    weight_loads: int = 0
    index_loads: int = 0
    feature_loads: int = 0
    pointer_loads: int = 0
    simd_instructions: int = 0

    def __iadd__(self, other: "TraceCounters") -> "TraceCounters":
        self.macs_executed += other.macs_executed
        self.weight_loads += other.weight_loads
        self.index_loads += other.index_loads
        self.feature_loads += other.feature_loads
        self.pointer_loads += other.pointer_loads
        self.simd_instructions += other.simd_instructions
        return self

    def __add__(self, other: "TraceCounters") -> "TraceCounters":
        merged = TraceCounters(**vars(self))
        merged += other
        return merged


def _conv_inputs(layer: LayerSpec, stream: CsfStream, features, who: str):
    """Checks a conv layer/stream pair; returns (padded input, out_h, out_w)."""
    if layer.kind != "conv" or stream.profile != "conv":
        raise ValueError(f"{who} needs a conv layer and a conv stream")
    if (stream.channels, stream.kernel) != (layer.channels, layer.kernel):
        raise ValueError(
            f"stream {stream.channels}x{stream.kernel} does not match "
            f"layer {layer.channels}x{layer.kernel}"
        )
    x = as_f32(features, (layer.channels, layer.height, layer.width))
    out_w, out_h = output_shape(layer)
    return pad_channels(x, layer.pad), out_h, out_w


class EngineContext:
    """Scalar instruction-at-a-time execution over one conv stream."""

    def __init__(self, layer: LayerSpec, stream: CsfStream, features):
        self.padded, self.out_h, self.out_w = _conv_inputs(
            layer, stream, features, "instruction stepping")
        self.layer = layer
        self.stream = stream
        self.global_buffer = np.zeros((stream.filters, self.out_h, self.out_w),
                                      np.float32)
        self.counters = TraceCounters()

    def simd3d_step(self, chi: int, y: int, x: int) -> np.ndarray:
        """Run one instruction: window (y, x) of channel chi, all filters."""
        k, stride = self.layer.kernel, self.layer.stride
        s = self.stream
        registers = np.zeros(s.filters, np.float32)
        c = self.counters
        for r in range(k):
            for col in range(k):
                value = self.padded[chi, y * stride + r, x * stride + col]
                c.feature_loads += 1
                c.pointer_loads += 1
                p = (chi * k + r) * k + col
                for i in range(s.offsets[p], s.offsets[p + 1]):
                    registers[s.indices[i]] += s.weights[i] * value
                    c.macs_executed += 1
                    c.weight_loads += 1
                    c.index_loads += 1
        self.global_buffer[:, y, x] += registers
        c.simd_instructions += 1
        return registers.copy()

    def run(self) -> np.ndarray:
        """Issue every instruction of the layer; returns the output buffer."""
        for chi in range(self.layer.channels):
            for y in range(self.out_h):
                for x in range(self.out_w):
                    self.simd3d_step(chi, y, x)
        return self.global_buffer


def run_conv(stream: CsfStream, features, layer: LayerSpec):
    """Execute a conv stream over one input; returns (output, counters).

    Vectorized across output coordinates and stacked filters, preserving
    each output element's scalar accumulation sequence.
    """
    padded, out_h, out_w = _conv_inputs(layer, stream, features, "run_conv")
    k, stride = layer.kernel, layer.stride
    offsets, indices, weights = stream.offsets, stream.indices, stream.weights
    out = np.zeros((stream.filters, out_h, out_w), np.float32)
    windows = out_h * out_w
    for chi in range(layer.channels):
        partial = np.zeros_like(out)
        for r in range(k):
            for col in range(k):
                p = (chi * k + r) * k + col
                lo, hi = offsets[p], offsets[p + 1]
                if hi > lo:
                    plane = _window_plane(padded, chi, r, col, out_h, out_w,
                                          stride)
                    partial[indices[lo:hi]] += (weights[lo:hi, None, None]
                                                * plane[None, :, :])
        out += partial
    counters = TraceCounters(
        macs_executed=stream.total_nnz * windows,
        weight_loads=stream.total_nnz * windows,
        index_loads=stream.total_nnz * windows,
        feature_loads=layer.channels * windows * k * k,
        pointer_loads=layer.channels * windows * k * k,
        simd_instructions=layer.channels * windows,
    )
    return out, counters


def run_fc(stream: CsfStream, features):
    """Execute an fc stream over one input; returns (output, counters).

    The input may have any shape whose flattened length matches the stream.
    Output is (filters, 1, 1), each element one flat running sum walked in
    input stream order: np.add.at applies the products in entry order,
    which is position order.
    """
    if stream.profile != "fc":
        raise ValueError("run_fc needs an fc stream")
    x = as_f32(features).ravel()
    if x.size != stream.position_count:
        raise ValueError(
            f"input length {x.size} does not match stream "
            f"position count {stream.position_count}"
        )
    out = np.zeros(stream.filters, np.float32)
    np.add.at(out, stream.indices, stream.weights * np.repeat(x, stream.counts))
    counters = TraceCounters(
        macs_executed=stream.total_nnz,
        weight_loads=stream.total_nnz,
        index_loads=stream.total_nnz,
        feature_loads=stream.position_count,
        pointer_loads=stream.position_count,
        simd_instructions=stream.position_count,
    )
    return out.reshape(stream.filters, 1, 1), counters


def run_layer_batched(weights, features, layer: LayerSpec, batch_size: int):
    """Run a whole filter bank in stacks of at most batch_size filters.

    Encodes each stack, executes it, and concatenates the outputs in filter
    order; counters accumulate across stacks. Returns (output, counters).
    An empty bank runs no stack: its output has no filters and its counters
    are zero.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} must be >= 1")
    bank = as_f32(weights)
    total = bank.shape[0]
    if total == 0:
        out_w, out_h = output_shape(layer)
        return np.zeros((0, out_h, out_w), np.float32), TraceCounters()
    outputs = []
    counters = TraceCounters()
    for start in range(0, total, batch_size):
        size = min(batch_size, total - start)
        stacked = stack_filters(bank, start, size)
        stream = encode_csf(stacked, layer.kind)
        if layer.kind == "conv":
            out, trace = run_conv(stream, features, layer)
        else:
            out, trace = run_fc(stream, features)
        outputs.append(out)
        counters += trace
    return np.concatenate(outputs, axis=0), counters
