"""Dense float32 reference semantics for CONV and FC layers.

These oracles and the streaming engine must agree bit for bit, so the
accumulation discipline is pinned down: channels outermost, then kernel row,
then kernel column, one float32 partial sum per channel per output element
(the engine flushes its registers once per channel). FC is this rule on a
1x1 plane whose channels are the flattened input: by the zero rule below,
each product is its channel's partial sum, so outputs sum in input order.

`dense_conv` walks the output in tiles of whole output rows, as many
as fit `_PIXEL_BLOCK` pixels and at least one, and gives each tile one
float32 accumulator: the tile's output rows, then at most one
partial-sum row per filter. Per tile it copies each channel's k*k
window rows into one contiguous scratch row each, and adds its products
by its share of nonzero weights:

- a dense channel, with a share of at least `_DENSE_SHARE`, multiplies
  every weight: tap 0's (filters, 1) weight column times its window row
  is written as every filter's partial-sum row, each later tap's
  product is added in with one contiguous add, and one more adds the
  partial sums into the output rows;
- a listed channel multiplies only its nonzero weights, listed
  tap-major: per kernel position in row then column order, the filters
  whose weight there is nonzero, ascending. Each pair has one target
  row: its filter's output row when it is that filter's only product
  in the channel, else that filter's partial-sum row, kept for the
  filters with two or more products and zeroed first. So each tap is
  one `acc[target] += weight * window_row`, and the partial sums flush
  into their output rows with one scatter. Within one channel and tap a
  filter appears at most once and is either lone or summed, so the
  targets are distinct and each product is added once.

A finished tile's output rows are copied into the output. Tiling
changes which elements are computed together, never the sequence of
float32 additions any one output element sees.

The counting and listing, the set-up, runs once per row tile and group
of channels: a group holds as many whole channels as fit `_GROUP_CELLS`
(channel, tap, filter) cells, and at least one. A few whole-array
passes over the group's transposed `!= 0` mask give each channel its
path and plan: a dense channel has no plan, and a listed channel's
holds, per tap, the target rows and weight column of its pairs in the
order above, and the filters its partial sums flush into. Every index
array is numpy's own `intp`, so no fancy index converts its index on
each use. The groups change no arithmetic.

`dense_conv` sets numpy's ufunc buffer to 128 elements: at the default
8192, multiplying rows of a few hundred to 3000 floats by a weight
column copies the column through the buffer, at 2-4x the cost. In
`dense_conv` that is each tap's broadcast multiply. Rows shorter than
about 150 floats are the exception: there the default buffer is
slightly faster.

The zero rule makes skipping zero weights exact: a partial sum starts at
+0.0 and round-to-nearest addition gives -0.0 only when both operands
are -0.0, so a partial is never -0.0. Inputs are finite (`as_f32`
rejects NaN and Inf), so a zero weight's product is +-0.0, and adding
+-0.0 to a partial that is not -0.0 leaves it unchanged. The same rule
keeps the output, which starts at +0.0, free of -0.0, so a single
product p may go straight into the output: its partial would be
+0.0 + p, which differs from p only when p is -0.0, and adding either
zero to the output gives the same bytes. By the same rule a dense
channel's partials may start at tap 0's products instead of +0.0 and
add the zero weights' products too: at every step such a partial equals
the partial over the nonzero weights, or both are zeros, one of them
perhaps -0.0, and adding either zero to the output gives the same
bytes. The bytes are those of the whole-plane loop over every weight.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .layers import LayerSpec, output_shape

# output pixels per dense_conv tile of whole output rows, or one row
# where a row is wider: a tile's accumulator, its output rows and at most
# one partial-sum row per filter, is 2 x filters x tile pixels floats
_PIXEL_BLOCK = 1 << 12

# nonzero share of a channel's weights from which dense_conv multiplies
# every weight of it, tap by tap over contiguous rows, instead of listing
# its nonzero (tap, filter) pairs
_DENSE_SHARE = 0.4

# (channel, tap, filter) cells whose set-up dense_conv does together, in
# a few whole-array passes; a larger group takes more set-up scratch
_GROUP_CELLS = 1 << 16

# weights random_sparse_filters writes per chunk: its scratch is three
# float64 draws of this length (1.5 MB), whatever the bank's size
_GEN_CHUNK = 1 << 16


def as_f32(values, dims=None) -> np.ndarray:
    """Coerce to a C-contiguous float32 array; rejects NaN/Inf values.

    The check reads only the minimum and maximum, so it allocates no
    array: NaN propagates through both and fails every comparison.
    """
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if arr.size and not -np.inf < arr.min() <= arr.max() < np.inf:
        raise ValueError("tensor contains NaN or Inf")
    if dims is not None and arr.shape != tuple(dims):
        raise ValueError(f"expected dims {tuple(dims)}, got {arr.shape}")
    return arr


def pad_channels(features: np.ndarray, pad: int) -> np.ndarray:
    """Zero border of `pad` elements on every side of each channel plane."""
    return np.pad(features, ((0, 0), (pad, pad), (pad, pad)))


def _copy_windows(padded: np.ndarray, chans: slice, layer: LayerSpec,
                  out: np.ndarray) -> None:
    """Copy the input samples kernel tap t touches into out[t].

    Taps run in kernel row then column order; `out` is (taps, channels,
    out_h, out_w) for the slice of channels `chans`.
    """
    k, stride = layer.kernel, layer.stride
    out_h, out_w = out.shape[-2:]
    for r in range(k):
        for c in range(k):
            out[r * k + c] = padded[chans,
                                    r:r + (out_h - 1) * stride + 1:stride,
                                    c:c + (out_w - 1) * stride + 1:stride]


@contextlib.contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer at 128 elements (see the module docstring)."""
    old = np.setbufsize(128)  # numpy 1.x errstate does not scope it
    try:
        yield
    finally:
        np.setbufsize(old)


def _bank(weights, layer: LayerSpec) -> np.ndarray:
    """Float32 weights whose extents past the first match the layer's bank."""
    w = as_f32(weights)
    if w.ndim != 4 or w.shape[1:] != layer.bank_shape[1:]:
        raise ValueError(f"{layer.name}: weights {w.shape} do not match "
                         f"(*, {', '.join(map(str, layer.bank_shape[1:]))})")
    return w


def _list_group(w: np.ndarray, c0: int, c1: int) -> list:
    """Count and list the nonzero weights of channels c0:c1 of bank `w`.

    A channel below the dense share lists its nonzero (tap, filter)
    pairs in tap-major order. A filter with a single product in a
    channel adds it into its output row; the others add into partial-sum
    rows, kept for the filters with two or more products in filter order
    from row `filters` of the accumulator. Returns one plan per channel:
    None for a dense channel, else the (target rows, weight column)
    slices of each of its taps and the filters its partial-sum rows
    flush into, in row order.
    """
    filters, channels, k, _ = w.shape
    taps, n = k * k, c1 - c0
    # (channel, tap, filter) order, the listing's
    nonzero = (w[:, c0:c1].reshape(filters, n * taps) != 0).T.copy()
    nonzero = nonzero.reshape(n, taps * filters)
    # per row: with an axis, count_nonzero casts the mask to integers
    dense = [np.count_nonzero(row) >= _DENSE_SHARE * taps * filters
             for row in nonzero]
    nonzero[dense] = False
    at, filt = np.divmod(np.flatnonzero(nonzero), filters)
    # the bank holds a pair's weight at ((filt * channels) + c0) * taps + at
    index = filt * channels
    index += c0
    index *= taps
    index += at
    weight = w.reshape(-1).take(index)[:, None]
    # (channel, filter) of each pair
    key = at // taps
    key *= filters
    key += filt
    multi = np.bincount(key, minlength=n * filters).reshape(n, filters) > 1
    # a lone pair's row is its filter's, a summed one's its partial's
    rows = np.cumsum(multi, axis=1)
    rows += filters - 1
    rows = np.where(multi, rows, np.arange(filters))
    target = rows.reshape(-1).take(key)
    # channel j's tap t adds the pairs from bounds[j * taps + t] to the next
    bounds = np.searchsorted(at, np.arange(n * taps + 1))
    starts = bounds[:-1].reshape(n, taps).tolist()
    ends = bounds[1:].reshape(n, taps).tolist()
    return [None if is_dense else (
        [(target[lo:hi], weight[lo:hi]) for lo, hi in zip(los, his)],
        np.flatnonzero(summed))
        for is_dense, los, his, summed in zip(dense, starts, ends, multi)]


@_small_ufunc_buffer()
def dense_conv(features, weights, layer: LayerSpec) -> np.ndarray:
    """Direct convolution over a filter bank of shape (filters, C, K, K).

    The bank's leading extent may be any batch size. Output is
    (filters, out_h, out_w) float32, accumulated channel-major with one
    partial sum per channel.
    """
    if layer.kind != "conv":
        raise ValueError(f"{layer.name}: dense_conv needs a conv layer")
    x = as_f32(features, (layer.channels, layer.height, layer.width))
    w = _bank(weights, layer)
    out_w, out_h = output_shape(layer)
    k, filters = layer.kernel, w.shape[0]
    taps = k * k
    padded = pad_channels(x, layer.pad)
    rows = min(out_h, max(1, _PIXEL_BLOCK // out_w))
    # flat scratch for the largest tile, reshaped per tile: the window
    # rows, and the accumulator's output rows then partial-sum rows
    window_rows = np.empty(taps * rows * out_w, np.float32)
    accumulator = np.empty(2 * filters * rows * out_w, np.float32)
    group = max(1, _GROUP_CELLS // max(1, taps * filters))
    # one tile of products for the dense channels, made on the first one
    product = None
    for y0 in range(0, out_h, rows):
        y1 = min(out_h, y0 + rows)
        pixels = (y1 - y0) * out_w
        windows = window_rows[:taps * pixels].reshape(taps, 1, y1 - y0, out_w)
        tile_rows = windows.reshape(taps, pixels)
        acc = accumulator[:2 * filters * pixels].reshape(2 * filters, pixels)
        tile_out = acc[:filters]
        tile_out.fill(0.0)
        for c0 in range(0, layer.channels, group):
            plans = _list_group(w, c0, min(layer.channels, c0 + group))
            for j, plan in enumerate(plans):
                _copy_windows(padded[:, y0 * layer.stride:],
                              slice(c0 + j, c0 + j + 1), layer, windows)
                if plan is None:
                    # every weight: tap 0's products are the partial sums
                    if product is None:
                        product = np.empty(filters * rows * out_w,
                                           np.float32)
                    prod = product[:filters * pixels].reshape(filters, pixels)
                    part = acc[filters:]
                    column = w[:, c0 + j].reshape(filters, taps).T[:, :, None]
                    np.multiply(column[0], tile_rows[0], out=part)
                    for t in range(1, taps):
                        np.multiply(column[t], tile_rows[t], out=prod)
                        part += prod
                    tile_out += part
                    continue
                # each tap adds into rows target: a lone product into its
                # output row, the others into partial sums that flush into
                # filters flush
                pairs, flush = plan
                part = acc[filters:filters + flush.size]
                # start from +0.0 like a zeroed register file, so products
                # that are all -0.0 still sum to +0.0
                part.fill(0.0)
                for tile_row, (target, weight) in zip(tile_rows, pairs):
                    acc[target] += weight * tile_row
                tile_out[flush] += part
        if not y0:
            # made once the first tile is done, so that a one-tile layer
            # holds the output beside its accumulator only at the end
            out = np.empty((filters, out_h * out_w), np.float32)
        out[:, y0 * out_w:y1 * out_w] = tile_out
    return out.reshape(filters, out_h, out_w)


def dense_fc(features, weights, layer: LayerSpec) -> np.ndarray:
    """The conv rule's fast case on a 1x1 plane: products in input order.

    It stays beside `dense_conv`'s 1x1 case because there every input
    element is a channel, listed and copied on its own, where here it is
    one multiply-add across every filter. Weights have shape
    (filters, C, H, W); output is (filters, 1, 1).
    """
    if layer.kind != "fc":
        raise ValueError(f"{layer.name}: dense_fc needs an fc layer")
    x = as_f32(features, (layer.channels, layer.height, layer.width)).ravel()
    w = _bank(weights, layer)
    flat = w.reshape(w.shape[0], x.size)
    out = np.zeros(w.shape[0], np.float32)
    for p in range(x.size):
        out += flat[:, p] * x[p]
    return out.reshape(w.shape[0], 1, 1)


def random_sparse_filters(layer: LayerSpec, density: float, seed: int) -> np.ndarray:
    """Deterministic sparse filter bank for a layer.

    Reads numpy's PCG64 stream seeded with `seed` as three segments of n
    doubles each, n the bank's weight count: draws 0..n-1 keep a weight
    when below `density`, draws n..2n-1 give magnitudes 1 - u in (0, 1]
    (never exactly zero), and draws 2n..3n-1 make a weight negative when
    below 0.5. These are the draws of `default_rng(seed).random(shape)`
    called three times. The same seed always yields the same bank, and
    dropped weights are +0.0, never -0.0, so an encode/decode roundtrip
    gives the bank back byte for byte.

    The bank is written in C order, `_GEN_CHUNK` weights at a time: one
    generator per segment jumps to its start with `advance` (PCG64 spends
    one 64-bit output per double), so a chunk reads the same draws the
    whole-bank draw gives at its offsets, and the float64 scratch stays
    three chunks long whatever the bank's size.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    bank = np.empty(layer.bank_shape, np.float32)
    flat = bank.reshape(-1)
    n = flat.size
    keep_rng, magnitude_rng, sign_rng = (
        np.random.Generator(np.random.PCG64(seed).advance(segment * n))
        for segment in range(3))
    size = min(n, _GEN_CHUNK)
    keep, magnitude, sign = (np.empty(size) for _ in range(3))
    for start in range(0, n, size):
        m = min(size, n - start)
        k, w, s = keep[:m], magnitude[:m], sign[:m]
        keep_rng.random(out=k)
        magnitude_rng.random(out=w)
        sign_rng.random(out=s)
        np.subtract(1.0, w, out=w)
        # s - 0.5 is negative exactly when s < 0.5; 0.5 itself gives +0.0,
        # which keeps the weight positive
        np.subtract(s, 0.5, out=s)
        np.copysign(w, s, out=w)
        # dropped weights become +0.0 whatever their sign
        np.putmask(w, k >= density, 0.0)
        flat[start:start + m] = w
    return bank
