"""Streaming execution of compressed filter stacks.

One instruction processes a whole kernel window for one channel at one
output coordinate: each of the window's weight positions streams in a
single input value, and every nonzero weight at that position multiplies
it into the register of the filter it belongs to. Registers are zeroed at
the start of the instruction and flushed into the output buffer at the end,
so each output element accumulates one float32 partial sum per channel.

`run_conv` and `run_fc` compute these float32 sums in this per-element
order with vectorized sweeps across output coordinates and filters. The
literal instruction-level walk, one scalar multiply-accumulate at a
time, is `EngineContext` in `tests/scalar_engine.py`: the tests' reference,
which `run_conv` matches bit for bit.

`run_conv` walks the input in blocks of whole channels: as many as keep
a block's registers and its window rows each within `_BLOCK_FLOATS`.
Rank j of a (channel, filter) register is its (j+1)-th product in tap
order, kernel row then column. Within a block, registers sit in slots
ordered by product count, descending, so the registers that take more
than j products are always the first slots; a few passes over the whole
stream give every entry its rank and slot. Per block, `run_conv` copies
each tap's window rows and walks the ranks: rank j is one take of the
window rows its entries read, one multiply by their weights and one add
into that contiguous prefix of the registers, and rank 0 is written
straight into its registers. Then, one channel at a time in channel
order, a take puts the channel's registers back in filter order, a pair
with no product reading one spare +0.0 row, and one add flushes them
into the output. This is exact: registers of different channels never
mix, each sees its channel's products in tap order, and each output
element sees one flush per channel, in channel order. Against a zeroed
register, one that starts from its first product p differs only when p
is -0.0, and then only in the sign of a zero sum. Adding either zero to
an output element gives the same bytes, because the output starts at
+0.0 and round-to-nearest addition gives -0.0 only from two -0.0
operands, so it is never -0.0. So a block's registers, and one rank's
products, stay within `_BLOCK_FLOATS`.

When that rule gives one-channel blocks (a large plane), `run_conv`
walks the channels in stream order instead: one channel's entries are
already tap-major. Each product is a tap's weight column times its one
window row, broadcast, not a gathered copy per entry. A filter with
exactly one product in the channel adds it straight into the output,
which gives the same bytes by the same argument, and a filter with no
product is skipped. So only the filters with two or more products in a
channel get registers, packed in filter order: zeroed, summed in tap
order and flushed with one scatter. Each entry's product count comes
from one pass over the whole stream. A channel whose full register file
(filters x windows) would exceed `_REGISTER_FLOATS` runs in the fewest
equal pixel tiles within it; a tile only decides which elements are
computed together. So the registers, and one tap's products, stay
within `_REGISTER_FLOATS` give or take one per filter, whatever the
plane; only one channel's window rows may exceed `_BLOCK_FLOATS`.

Every run also tallies what the hardware would have to move: multiplies
executed, weight and index fetches (one each per multiply), feature and
per-position count fetches, and instructions issued. `stack_trace` is
the one formula for them; the scalar reference tallies them load by
load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .codec import CsfStream, encode_csf, stack_filters
from .dense import _copy_windows, _small_ufunc_buffer, as_f32, pad_channels
from .layers import LayerSpec, output_shape

# float32 elements per run_conv channel block (1 MB): a block spans as
# many whole channels as keep its registers (channels x filters x
# windows) and its window rows (channels x taps x windows) each within
# it, so on a small plane one take, multiply and add per product rank
# covers many channels. Where that leaves one channel per block,
# run_conv goes channel by channel
_BLOCK_FLOATS = 1 << 18

# float32 registers per pixel tile of run_conv's one-channel path (4
# MB): a channel whose full register file (filters x windows) exceeds
# it runs in the fewest equal pixel tiles within it, give or take one
# register per filter. In 64-filter stacks that leaves VGG16 CONV2-1
# whole and cuts CONV1-x into four tiles. Against 1 MB (engine alone,
# medians of 6 rounds), CONV1-2 took 244 vs 285 ms at d0.1, 1879 vs
# 1241 ms at d0.5
_REGISTER_FLOATS = 1 << 20


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
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return self


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


@_small_ufunc_buffer()
def run_conv(stream: CsfStream, features, layer: LayerSpec):
    """Execute a conv stream over one input; returns (output, counters).

    Vectorized over blocks of whole channels, one take, multiply and
    contiguous add per product rank and block, or on a large plane
    channel by channel, in pixel tiles, with registers only for filters
    of two or more products (see the module docstring), preserving each
    output element's scalar accumulation sequence. Multiplies only the
    stream's nonzero weights: nnz x windows MACs.
    """
    if layer.kind != "conv" or stream.profile != "conv":
        raise ValueError("run_conv needs a conv layer and a conv stream")
    if (stream.channels, stream.kernel) != (layer.channels, layer.kernel):
        raise ValueError(
            f"stream {stream.channels}x{stream.kernel} does not match "
            f"layer {layer.channels}x{layer.kernel}"
        )
    padded = pad_channels(
        as_f32(features, (layer.channels, layer.height, layer.width)),
        layer.pad)
    out_w, out_h = output_shape(layer)
    channels, filters = layer.channels, stream.filters
    taps, windows = layer.kernel ** 2, out_h * out_w
    block = min(channels,
                max(1, _BLOCK_FLOATS // (max(filters, taps) * windows)))
    out = np.zeros((filters, windows), np.float32)
    if block == 1:
        _run_channels(stream, padded, layer, out)
    else:
        _run_blocks(stream, padded, layer, block, out)
    return out.reshape(filters, out_h, out_w), stack_trace(
        stream.total_nnz, stream.position_count, channels, windows)


def _run_blocks(stream: CsfStream, padded: np.ndarray, layer: LayerSpec,
                block: int, out: np.ndarray) -> None:
    """Add a conv stream's products into `out`, `block` channels at a time.

    `out` is (filters, windows). Registers sit in slots ordered by
    product count, so rank j of every register is one take of window
    rows, one multiply and one add into a contiguous prefix of the
    registers (see the module docstring).
    """
    out_w, out_h = output_shape(layer)
    k, channels, filters = layer.kernel, layer.channels, stream.filters
    taps, windows = k * k, out_h * out_w
    blocks, pairs = -(-channels // block), block * filters
    # each entry's position, channel * taps + tap, and its rank among its
    # (channel, filter) pair's products in tap order: a running count
    # over the (channel, tap, filter) cells, tap by tap
    position = np.repeat(np.arange(stream.position_count), stream.counts)
    cell = position * filters + stream.indices
    seen = np.zeros((channels, taps, filters), np.min_scalar_type(taps))
    seen.reshape(-1)[cell] = 1
    for t in range(1, taps):
        seen[:, t] += seen[:, t - 1]
    rank = seen.reshape(-1)[cell]
    held = seen[:, -1].reshape(-1)
    # the set-up arrays go before the next ones come, to bound the peak
    del cell, seen
    # within each block, slots in descending product count, ties in
    # (channel, filter) order: a stable sort by (block, taps - held). The
    # block's pairs with more than j products hold its first above[b, j]
    # slots, and its rank-j entries run from starts[b, j] in slot order
    key = np.arange(held.size) // pairs * (taps + 1) + (taps - held)
    slot = np.empty_like(key)
    slot[np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))),
                    kind="stable")] = np.arange(held.size) % pairs
    # a running count of the pairs per (block, taps - held), read from
    # held == taps down to held == 1
    above = np.bincount(key, minlength=blocks * (taps + 1)).reshape(
        blocks, taps + 1).cumsum(axis=1)[:, taps - 1::-1]
    starts = (np.cumsum(above, axis=1) - above
              + stream.offsets[:-1:block * taps, None])
    sequence = starts.reshape(-1)[position // (block * taps) * taps
                                  + rank - 1]
    sequence += slot[position // taps * filters + stream.indices]
    # a block's window rows are channel-major, so an entry reads the row
    # of its position within its block
    row = np.empty_like(position)
    row[sequence] = position % (block * taps)
    weight = np.empty((stream.total_nnz, 1), np.float32)
    weight[sequence, 0] = stream.weights
    # a pair with no product flushes row above[b, 0], kept +0.0
    flush = np.where(held > 0, slot,
                     np.repeat(above[:, 0], pairs)[:held.size])
    del position, rank, key, slot, sequence
    window_rows = np.empty((block, taps, out_h, out_w), np.float32)
    rows = window_rows.reshape(-1, windows)
    # one spare row past a block's registers, for the pairs with no product
    register_file = np.empty((pairs + 1, windows), np.float32)
    # rank 1 is the largest rank that adds into registers
    products = np.empty((above[:, 1:].max(initial=0), windows), np.float32)
    flushed = np.empty((filters, windows), np.float32)
    for b, c0 in enumerate(range(0, channels, block)):
        c1 = min(channels, c0 + block)
        if not above[b, 0]:
            continue
        _copy_windows(padded, slice(c0, c1), layer,
                      window_rows[:c1 - c0].swapaxes(0, 1))
        for j, (start, n) in enumerate(zip(starts[b].tolist(),
                                           above[b].tolist())):
            if not n:
                break
            # rank 0 goes straight into its registers: +0.0 + p would
            # differ from p only for p == -0.0 (see the module docstring)
            target = products[:n] if j else register_file[:n]
            # under the default mode="raise" numpy buffers `out`
            np.take(rows, row[start:start + n], axis=0, out=target,
                    mode="clip")
            target *= weight[start:start + n]
            if j:
                register_file[:n] += target
        register_file[above[b, 0]] = 0.0
        chan_slots = flush[b * pairs:b * pairs + (c1 - c0) * filters]
        for slots in chan_slots.reshape(c1 - c0, filters):
            np.take(register_file, slots, axis=0, out=flushed, mode="clip")
            out += flushed


def _run_channels(stream: CsfStream, padded: np.ndarray, layer: LayerSpec,
                  out: np.ndarray) -> None:
    """Add a conv stream's products into `out`, one channel at a time.

    `out` is (filters, windows), walked in the fewest equal pixel tiles
    that keep a full register file within `_REGISTER_FLOATS`. Each
    product is a weight column times one broadcast window row; registers
    go only to filters with two or more products in the channel (see the
    module docstring).
    """
    out_w, out_h = output_shape(layer)
    k, channels, filters = layer.kernel, layer.channels, stream.filters
    taps, windows = k * k, out_h * out_w
    tiles = max(1, -(-filters * windows // _REGISTER_FLOATS))
    tile = -(-windows // tiles)
    # classify every entry at once: its position (channel * taps + tap),
    # and how many products its (channel, filter) pair takes
    position = np.repeat(np.arange(stream.position_count), stream.counts)
    chan = position // taps
    pair = chan * filters + stream.indices
    products = np.bincount(pair, minlength=channels * filters)
    lone = products[pair] == 1
    summed = (products >= 2).reshape(channels, filters)
    # a summed entry adds into register register_of[e]: its filter's rank
    # among the channel's summed filters
    register_of = (np.cumsum(summed, axis=1).ravel() - 1)[pair[~lone]]
    weight = stream.weights[~lone, None]
    lone_filter = stream.indices[lone]
    lone_weight = stream.weights[lone, None]
    # position p's summed entries are bounds[p]:bounds[p + 1], its lone
    # entries lone_bounds[p]:lone_bounds[p + 1]
    bounds, lone_bounds = (
        np.concatenate(([0], np.cumsum(np.bincount(
            position[chosen], minlength=stream.position_count)))).tolist()
        for chosen in (~lone, lone))
    window_rows = np.empty((taps, out_h, out_w), np.float32)
    rows = window_rows.reshape(taps, windows)
    partial = np.empty(filters * tile, np.float32)
    for c in range(channels):
        first, last = c * taps, (c + 1) * taps
        if stream.offsets[first] == stream.offsets[last]:
            continue
        flush = np.flatnonzero(summed[c])
        _copy_windows(padded, c, layer, window_rows)
        for p0 in range(0, windows, tile):
            p1 = min(windows, p0 + tile)
            registers = partial[:len(flush) * (p1 - p0)].reshape(
                len(flush), p1 - p0)
            # start from +0.0 like a zeroed register file
            registers.fill(0.0)
            for t in range(taps):
                lo, hi = bounds[first + t], bounds[first + t + 1]
                if hi > lo:
                    registers[register_of[lo:hi]] += (weight[lo:hi]
                                                      * rows[t, p0:p1])
                lo, hi = lone_bounds[first + t], lone_bounds[first + t + 1]
                if hi > lo:
                    out[lone_filter[lo:hi], p0:p1] += (lone_weight[lo:hi]
                                                       * rows[t, p0:p1])
            out[flush, p0:p1] += registers


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


def _run_stack(bank: np.ndarray, start: int, size: int, features,
               layer: LayerSpec):
    """Encode filters start:start + size and run them; (output, counters)."""
    stream = encode_csf(stack_filters(bank, start, size), layer.kind)
    if layer.kind == "conv":
        return run_conv(stream, features, layer)
    return run_fc(stream, features)


def run_layer_batched(weights, features, layer: LayerSpec, batch_size: int):
    """Run a whole filter bank in stacks of at most batch_size filters.

    Encodes each stack, executes it, and writes its output into the rows
    of its filters; counters accumulate across stacks. Returns (output,
    counters). A bank of one stack returns that stack's output as it is;
    an empty bank runs no stack: its output has no filters and its
    counters are zero.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} must be >= 1")
    bank = as_f32(weights)
    total = bank.shape[0]
    if 0 < total <= batch_size:
        return _run_stack(bank, 0, total, features, layer)
    out_w, out_h = output_shape(layer)
    out = np.empty((total, out_h, out_w), np.float32)
    counters = TraceCounters()
    for start in range(0, total, batch_size):
        size = min(batch_size, total - start)
        out[start:start + size], trace = _run_stack(bank, start, size,
                                                    features, layer)
        counters += trace
    return out, counters
