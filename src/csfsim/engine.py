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

`run_conv` walks the output in tiles of whole output rows and the input
in blocks of whole channels, both sized by one term, `max(filters, taps)`
floats per channel and output pixel: a channel's registers take
`filters` and its window rows `taps`. A tile holds as many whole output
rows as keep one channel's floats within `_BLOCK_FLOATS`, at least one,
and a block as many whole channels as keep theirs over one tile within
it, at least one; so a block of two or more channels covers the whole
output in one tile. Registers, one rank's products and window rows each
stay within `_BLOCK_FLOATS`, give or take one spare register row per
tile, unless one output row alone exceeds it: the budget is sized so
that the three fit together in a 2 MiB L2 cache, and a smaller one adds
blocks and tiles, and the calls they cost. Rank j of a (channel, filter)
register is its (j+1)-th product in tap order, kernel row then column.
Within a block, registers sit in slots ordered by product count,
descending, so the registers that take more than j products are always
the first slots; a few passes over the whole stream give every entry its
rank and slot, once, whatever the tiles. Per tile and block, `run_conv`
copies each tap's window rows and walks the ranks: rank j is one take of
the window rows its entries read, one multiply by their weights and one
add into that contiguous prefix of the registers, and rank 0 is written
straight into its registers. Then, one channel at a time in channel
order, a take puts the channel's registers back in filter order, a pair
with no product reading the spare +0.0 row, and one add flushes them
into the output. This is exact: registers of different channels never
mix, each sees its channel's products in tap order, and each output
element sees one flush per channel, in channel order. A tile only
decides which output elements are computed together, so it leaves every
element's float32 sequence, and so the bytes, as they are. A register
that starts from its first product instead of +0.0 gives the same bytes,
by the zero rule in the `dense` module docstring.

The set-up holds each entry's position, cell and place in slot order in
the narrowest signed integer type that holds every position and every
(channel, tap, filter) cell, and does its arithmetic in place, which
bounds its memory on whole-layer stacks. Only the row each entry reads
and the flush slots, which the tile loop's takes index with, are intp.

`run_conv` runs under the oracle's 128-element ufunc buffer (see the
`dense` module docstring) for the rank loop's in-place multiply of the
taken window rows by their weight column, its only multiply.

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

# run_conv's budget in float32 elements (512 KiB): its registers, one
# rank's products and its window rows each keep within it per tile and
# block (see the module docstring)
_BLOCK_FLOATS = 1 << 17


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

    Vectorized over tiles of whole output rows, then blocks of whole
    channels, one take, multiply and contiguous add per product rank,
    tile and block (see the module docstring), preserving each output
    element's scalar accumulation sequence. Multiplies only the stream's
    nonzero weights: nnz x windows MACs.
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
    k, channels, filters = layer.kernel, layer.channels, stream.filters
    taps, windows = k * k, out_h * out_w
    # the larger of a channel's register and window-row floats per output
    # pixel sizes the tiles, then the blocks (see the module docstring)
    per_pixel = max(filters, taps)
    rows = min(out_h, max(1, _BLOCK_FLOATS // (per_pixel * out_w)))
    block = min(channels,
                max(1, _BLOCK_FLOATS // (per_pixel * rows * out_w)))
    out = np.zeros((filters, windows), np.float32)
    blocks, pairs = -(-channels // block), block * filters
    # the per-entry set-up in the narrowest type that holds every
    # position and every (channel, tap, filter) cell, its arithmetic
    # done in place
    index = _index_type(channels * taps * max(filters, 1))
    # each entry's position, channel * taps + tap, and its rank among its
    # (channel, filter) pair's products in tap order: a running count
    # over the (channel, tap, filter) cells, tap by tap
    position = np.repeat(np.arange(stream.position_count, dtype=index),
                         stream.counts)
    cell = position * filters
    cell += stream.indices
    seen = np.zeros((channels, taps, filters), np.min_scalar_type(taps))
    seen.reshape(-1)[cell] = 1
    for t in range(1, taps):
        seen[:, t] += seen[:, t - 1]
    rank = seen.reshape(-1)[cell]
    held = seen[:, -1].reshape(-1)
    # the set-up arrays go before the next ones come, to bound the peak
    del seen
    # within each block, slots in descending product count, ties in
    # (channel, filter) order: a stable sort by (block, taps - held). The
    # block's pairs with more than j products hold its first above[b, j]
    # slots, and its rank-j entries run from starts[b, j] in slot order
    key = np.arange(held.size) // pairs * (taps + 1) + (taps - held)
    slot = np.empty(held.size, index)
    slot[np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))),
                    kind="stable")] = np.arange(held.size) % pairs
    # a running count of the pairs per (block, taps - held), read from
    # held == taps down to held == 1
    above = np.bincount(key, minlength=blocks * (taps + 1)).reshape(
        blocks, taps + 1).cumsum(axis=1)[:, taps - 1::-1]
    del key
    starts = (np.cumsum(above, axis=1) - above
              + stream.offsets[:-1:block * taps, None]).astype(index)
    # an entry's place in slot order: its pair's slot, slot[channel *
    # filters + filter], plus the start of its block's rank,
    # starts[block, rank - 1]; both indices are made in the cell array
    np.floor_divide(position, taps, out=cell)
    cell *= filters
    cell += stream.indices
    sequence = slot[cell]
    np.floor_divide(position, block * taps, out=cell)
    cell *= taps
    cell += rank
    cell -= 1
    sequence += starts.reshape(-1)[cell]
    del cell, rank
    # a block's window rows are channel-major, so an entry reads the row
    # of its position within its block
    row = np.empty(stream.total_nnz, np.intp)
    row[sequence] = np.remainder(position, block * taps, out=position)
    del position
    weight = np.empty((stream.total_nnz, 1), np.float32)
    weight[sequence, 0] = stream.weights
    del sequence
    # a pair with no product flushes row above[b, 0], kept +0.0
    flush = np.where(held > 0, slot,
                     np.repeat(above[:, 0], pairs)[:held.size])
    del slot
    # flat scratch for the largest tile, reshaped per tile so that every
    # take writes a contiguous array: the window rows, the registers with
    # one spare row for the pairs with no product and one rank's products
    # (rank 1 is the largest that adds into registers)
    tile = rows * out_w
    window_rows = np.empty(block * taps * tile, np.float32)
    register_file = np.empty((pairs + 1) * tile, np.float32)
    products = np.empty(above[:, 1:].max(initial=0) * tile, np.float32)
    # each block with entries: its channels, the (start, count) of each
    # rank that has entries, and its pairs' flush slots channel by channel
    plan = [(c0, min(channels, c0 + block),
             [(start, n) for start, n in zip(starts[b].tolist(),
                                             above[b].tolist()) if n],
             flush[b * pairs:(b + 1) * pairs].reshape(-1, filters))
            for b, c0 in enumerate(range(0, channels, block)) if above[b, 0]]
    # tiles outermost, so one tile of the output takes every flush in turn
    for y0 in range(0, out_h, rows):
        y1 = min(out_h, y0 + rows)
        pixels = (y1 - y0) * out_w
        tile_windows = window_rows[:block * taps * pixels].reshape(
            block, taps, y1 - y0, out_w)
        tile_rows = tile_windows.reshape(-1, pixels)
        registers = register_file[:(pairs + 1) * pixels].reshape(
            pairs + 1, pixels)
        tile_out = out[:, y0 * out_w:y1 * out_w]
        for c0, c1, ranks, chan_slots in plan:
            _copy_windows(padded[:, y0 * layer.stride:], slice(c0, c1),
                          layer, tile_windows[:c1 - c0].swapaxes(0, 1))
            for j, (start, n) in enumerate(ranks):
                # rank 0 goes straight into its registers: +0.0 + p would
                # differ from p only for p == -0.0 (see the module
                # docstring)
                target = (products[:n * pixels].reshape(n, pixels) if j
                          else registers[:n])
                # under the default mode="raise" numpy buffers `out`
                np.take(tile_rows, row[start:start + n], axis=0,
                        out=target, mode="clip")
                target *= weight[start:start + n]
                if j:
                    registers[:n] += target
            # the spare row past the rank-0 registers
            registers[ranks[0][1]] = 0.0
            for slots in chan_slots:
                tile_out += registers.take(slots, axis=0)
    return out.reshape(filters, out_h, out_w), stack_trace(
        stream.total_nnz, stream.position_count, channels, windows)


def _index_type(cells: int) -> np.dtype:
    """The narrowest signed integer type that holds 0 to `cells`.

    Signed, so that in-place arithmetic with the stream's int64 indices
    casts within one kind.
    """
    return np.min_scalar_type(-1 - cells)


def run_fc(stream: CsfStream, features):
    """Execute an fc stream over one input; returns (output, counters).

    The conv rule's fast case on a 1x1 plane (see the `dense` module
    docstring): np.add.at applies the products in entry order, which is
    input stream order. It stays beside `run_conv`'s 1x1 case because
    one window leaves the rank set-up nothing to share: it would sort
    every entry into a slot to multiply it once. The input may have any
    shape whose flattened length matches the stream. Output is
    (filters, 1, 1).
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
