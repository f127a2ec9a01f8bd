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

`run_conv` regroups a stream's entries tap-major, by (kernel tap,
channel, filter), and walks the input in blocks of whole channels, sized
so a block's partial sums and window rows each stay within
`_BLOCK_FLOATS`. Per block it copies each tap's window rows, zeroes one
register row per (channel, filter) and then, tap by tap in kernel row
then column order, gathers the window rows the tap's entries read,
multiplies them by their weights and adds them into their registers in
one scatter. Finally it flushes the registers into the output one channel
at a time, in channel order. This is exact: registers of different
channels never mix, a (channel, filter) register appears at most once
per tap so the scatter adds each product once, and each output element
still sees, per channel, +0.0 plus that channel's products in tap order,
then one flush per channel.

Every run also tallies what the hardware would have to move: multiplies
executed, weight and index fetches (one each per multiply), feature and
per-position count fetches, and instructions issued. `stack_trace` is
the one formula for them; `EngineContext` tallies them load by load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CsfStream, encode_csf, stack_filters
from .dense import _TILE_FLOATS, _window_plane, as_f32, pad_channels
from .layers import LayerSpec, output_shape

# float32 elements per run_conv channel block (1 MB): the block's partial
# sums (channels x filters x windows) and its window rows (channels x
# taps x windows) each stay within it; a block holds at least one channel
_BLOCK_FLOATS = 4 * _TILE_FLOATS


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


def stack_trace(nnz: int, positions: int, channels: int,
                windows: int) -> TraceCounters:
    """The counters of one stack run over `windows` output coordinates.

    Per window: a multiply, weight fetch and index fetch per nonzero, a
    feature fetch and count fetch per position, an instruction per
    channel. An fc stream is one window of positions == channels.
    """
    macs, streams = nnz * windows, positions * windows
    return TraceCounters(macs, macs, macs, streams, streams,
                         channels * windows)


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

    Vectorized over blocks of whole channels, one gather, multiply and
    scatter per kernel tap and block (see the module docstring), preserving
    each output element's scalar accumulation sequence. Multiplies only
    the stream's nonzero weights: nnz x windows MACs.
    """
    padded, out_h, out_w = _conv_inputs(layer, stream, features, "run_conv")
    k, stride, channels, filters = (layer.kernel, layer.stride,
                                    layer.channels, stream.filters)
    taps, windows = k * k, out_h * out_w
    # regroup the entries tap-major, (tap, channel, filter): stream order
    # is channel-major with filters ascending, so a stable sort keeps the
    # rest
    position = np.repeat(np.arange(stream.position_count), stream.counts)
    order = np.argsort(position % taps, kind="stable")
    chan = position[order] // taps
    register = chan * filters + stream.indices[order]
    weight = stream.weights[order, None]
    # tap t's entries for channels c0:c1: bounds[t*C + c0]:bounds[t*C + c1]
    bounds = np.concatenate(
        ([0], np.cumsum(stream.counts.reshape(channels, taps).T,
                         dtype=np.int64)))
    block = min(channels,
                max(1, _BLOCK_FLOATS // (max(filters, taps) * windows)))
    window_rows = np.empty((taps, block, out_h, out_w), np.float32)
    partial = np.empty((block, filters, windows), np.float32)
    out = np.zeros((filters, windows), np.float32)
    for c0 in range(0, channels, block):
        c1 = min(channels, c0 + block)
        rows = window_rows[:, :c1 - c0]
        for r in range(k):
            for col in range(k):
                rows[r * k + col] = _window_plane(
                    padded, slice(c0, c1), r, col, out_h, out_w, stride)
        rows = rows.reshape(taps, c1 - c0, windows)
        part = partial[:c1 - c0]
        # start from +0.0 like a zeroed register file
        part.fill(0.0)
        registers = part.reshape(-1, windows)
        for t in range(taps):
            lo, hi = bounds[t * channels + c0], bounds[t * channels + c1]
            if hi > lo:
                product = rows[t][chan[lo:hi] - c0]
                product *= weight[lo:hi]
                # each (channel, filter) register appears once per tap
                registers[register[lo:hi] - c0 * filters] += product
        for chan_partial in part:
            out += chan_partial
    return out.reshape(filters, out_h, out_w), stack_trace(
        stream.total_nnz, stream.position_count, channels, windows)


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
    return out.reshape(stream.filters, 1, 1), stack_trace(
        stream.total_nnz, stream.position_count, stream.channels, 1)


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
