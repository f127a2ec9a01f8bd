"""Dense float32 reference semantics for CONV and FC layers.

These oracles and the streaming engine must agree bit for bit, so the
accumulation discipline is pinned down: channels outermost, then kernel row,
then kernel column. CONV keeps one float32 partial sum per channel per
output element (the engine flushes its register file into the output buffer
once per channel); FC keeps a single flat running sum per output, walking
the input in stream order.

`dense_conv` skips a channel with no nonzero weight. Per other channel
it copies the k*k window planes into one contiguous scratch row each and
walks the output in tiles of every filter by up to `_PIXEL_BLOCK`
pixels, adding each tile's partial sums, one per filter, into the output
once. How a tile makes its partial sums depends on the channel's share
of nonzero weights:

- a dense channel, with a share of at least `_DENSE_SHARE`, multiplies
  every weight: tap 0's (filters, 1) weight column times its window row
  is written as the partial sums, and each later tap's product is added
  in with one contiguous add;
- a listed channel multiplies only its nonzero weights, listed
  tap-major: per kernel position in row then column order, the filters
  whose weight there is nonzero, ascending. The tile zeroes its partial
  sums and adds one product row per listed (tap, filter) pair into that
  filter's partial, tap by tap. A filter appears at most once per tap,
  so each product is added once.

Tiling changes which elements are computed together, never the sequence
of float32 additions any one output element sees.

On a layer whose filters x output pixels reach `_COMPACT_FLOATS`, each
listed channel keeps partial sums only for the filters with two or more
products in it, packed in filter order and flushed into their output
rows with one scatter. A filter with a single product adds it straight
into the output in its tap's turn, and a filter with none is left
alone. On a smaller layer every listed channel keeps one partial sum
per filter and its contiguous flush.

The counting and listing, the set-up, runs once per group of channels,
not once per channel: a group holds as many whole channels as fit
`_GROUP_CELLS` (channel, tap, filter) cells, and at least one. A few
whole-array passes over the group's transposed `!= 0` mask give every
channel's count, so its dense or listed path, one `flatnonzero` listing
of the listed channels' pairs in the order above, their weights and
every (channel, tap) bound, and on a large layer the lone split, the
partial-sum rows and each channel's flush rows. Every index array is
numpy's own `intp`, so no fancy index converts its index on each use.
Only the window copy and the tiles run per channel, so the groups change
no arithmetic.

`dense_conv` and `run_conv` set numpy's ufunc buffer to 128 elements:
at the default 8192, multiplying rows of a few hundred to 3000 floats by
a weight column copies the column through the buffer, at 2-4x the cost.
In `dense_conv` that is each tap's broadcast multiply; in `run_conv` it
is the rank loop's in-place multiply of the taken window rows by their
weight column, its only multiply. Rows shorter than about 150 floats
are the exception: there the default buffer is slightly faster.

Skipping zero weights is exact, by one rule: a partial sum starts at
+0.0 and round-to-nearest addition gives -0.0 only when both operands
are -0.0, so a partial is never -0.0. Inputs are finite (`as_f32`
rejects NaN and Inf), so a zero weight's product is +-0.0, and adding
+-0.0 to a partial that is not -0.0 leaves it unchanged. The same rule
keeps the output, which starts at +0.0, free of -0.0, so a channel with
no nonzero weight is skipped before its window planes are copied, and a
single product p may go straight into the output: its partial would be
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

# output pixels per dense_conv tile: a tile's partial sums are
# filters x _PIXEL_BLOCK floats
_PIXEL_BLOCK = 1 << 12

# filters x output pixels from which dense_conv keeps partial sums only
# for the filters with two or more products in a channel. Below it
# (VGG16 CONV5-x, AlexNet CONV2-5) the output rows are short, and the
# second scatter per tap and the longer per-channel set-up cost more than
# the fills and flushes they save
_COMPACT_FLOATS = 1 << 18

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
    if pad == 0:
        return features
    return np.pad(features, ((0, 0), (pad, pad), (pad, pad)))


def _copy_windows(padded: np.ndarray, chans: int | slice, layer: LayerSpec,
                  out: np.ndarray) -> None:
    """Copy the input samples kernel tap t touches into out[t].

    Taps run in kernel row then column order. `chans` picks one channel,
    with `out` of shape (taps, out_h, out_w), or a slice of channels, with
    `out` of shape (taps, channels, out_h, out_w).
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


def _list_group(w: np.ndarray, c0: int, c1: int, large: bool) -> tuple:
    """Count and list the nonzero weights of channels c0:c1 of bank `w`.

    A channel below the dense share lists its nonzero (tap, filter)
    pairs in tap-major order, and the channels' lists follow each other.
    On a large layer a filter with a single product in a channel makes a
    lone pair, and the others add into partial-sum rows kept for the
    filters with two or more; on a smaller layer every pair adds into its
    own filter's row. Returns, with i = channel * taps + tap counted from
    c0:

    - counts: each channel's nonzero weights;
    - bounds, part_of, weight: (channel, tap) i adds the pairs
      bounds[i]:bounds[i + 1], each weight (a column) times the window
      row into partial-sum row part_of;
    - sums, flush: each channel's partial-sum rows and the filters they
      flush into;
    - lone_bounds, lone_filt, lone_weight: (channel, tap) i adds its lone
      pairs lone_bounds[i]:lone_bounds[i + 1] straight into filters
      lone_filt.
    """
    filters, channels, k, _ = w.shape
    taps, n = k * k, c1 - c0
    # (channel, tap, filter) order, the listing's
    nonzero = (w[:, c0:c1].reshape(filters, n * taps) != 0).T.copy()
    nonzero = nonzero.reshape(n, taps * filters)
    # per row: with an axis, count_nonzero casts the mask to integers
    counts = [np.count_nonzero(row) for row in nonzero]
    nonzero[np.greater_equal(counts, _DENSE_SHARE * taps * filters)] = False
    at, filt = np.divmod(np.flatnonzero(nonzero), filters)
    # the bank holds a pair's weight at ((filt * channels) + c0) * taps + at
    index = filt * channels
    index += c0
    index *= taps
    index += at
    weight = w.reshape(-1).take(index)
    ends = np.arange(n * taps + 1)
    if not large:
        return (counts, np.searchsorted(at, ends).tolist(), filt,
                weight[:, None], [filters] * n, [slice(None)] * n,
                [0] * (n * taps + 1), filt[:0], weight[:0, None])
    # (channel, filter) of each pair
    key = at // taps
    key *= filters
    key += filt
    multi = np.bincount(key, minlength=n * filters) > 1
    summed = multi[key]
    lone = ~summed
    multi = multi.reshape(n, filters)
    slots = np.cumsum(multi, axis=1)
    slots -= 1
    sums = np.count_nonzero(multi, axis=1)
    flush = np.split(np.flatnonzero(multi) % filters, np.cumsum(sums)[:-1])
    # compress, not a boolean index: it takes a fraction of the time
    return (counts, np.searchsorted(at.compress(summed), ends).tolist(),
            slots.reshape(-1).take(key.compress(summed)),
            weight.compress(summed)[:, None], sums.tolist(), flush,
            np.searchsorted(at.compress(lone), ends).tolist(),
            filt.compress(lone), weight.compress(lone)[:, None])


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
    k, filters, pixels = layer.kernel, w.shape[0], out_h * out_w
    taps = k * k
    cells = taps * filters
    padded = pad_channels(x, layer.pad)
    out = np.zeros((filters, pixels), np.float32)
    pix_block = min(pixels, _PIXEL_BLOCK)
    partial = np.empty((filters, pix_block), np.float32)
    windows = np.empty((taps, out_h, out_w), np.float32)
    rows = windows.reshape(taps, pixels)
    # on a large layer, each listed channel keeps partial sums only for
    # the filters with two or more products in it
    large = filters * pixels >= _COMPACT_FLOATS
    group = max(1, _GROUP_CELLS // max(1, cells))
    # one tile of products for the dense channels, made on the first one
    product = None
    for c0 in range(0, layer.channels, group):
        (counts, bounds, part_of, weight, sums, flush, lone_bounds,
         lone_filt, lone_weight) = _list_group(
             w, c0, min(layer.channels, c0 + group), large)
        for j, count in enumerate(counts):
            if not count:
                continue
            _copy_windows(padded, c0 + j, layer, windows)
            if count >= _DENSE_SHARE * cells:
                # every weight: tap 0's products are the partial sums
                if product is None:
                    product = np.empty_like(partial)
                column = w[:, c0 + j].reshape(filters, taps).T[:, :, None]
                for p0 in range(0, pixels, pix_block):
                    p1 = min(pixels, p0 + pix_block)
                    part, prod = partial[:, :p1 - p0], product[:, :p1 - p0]
                    np.multiply(column[0], rows[0, p0:p1], out=part)
                    for t in range(1, taps):
                        np.multiply(column[t], rows[t, p0:p1], out=prod)
                        part += prod
                    out[:, p0:p1] += part
                continue
            # tap t's pairs ends[t]:ends[t + 1] add into partial sums
            # part_of, which flush into filters flush[j]; its lone pairs,
            # lone_ends[t]:lone_ends[t + 1], add straight into the output
            ends = bounds[j * taps:(j + 1) * taps + 1]
            lone_ends = lone_bounds[j * taps:(j + 1) * taps + 1]
            for p0 in range(0, pixels, pix_block):
                p1 = min(pixels, p0 + pix_block)
                part = partial[:sums[j], :p1 - p0]
                # start from +0.0 like a zeroed register file, so products
                # that are all -0.0 still sum to +0.0
                part.fill(0.0)
                for t in range(taps):
                    lo, hi = ends[t], ends[t + 1]
                    if hi > lo:
                        part[part_of[lo:hi]] += weight[lo:hi] * rows[t, p0:p1]
                    lo, hi = lone_ends[t], lone_ends[t + 1]
                    if hi > lo:
                        out[lone_filt[lo:hi], p0:p1] += (lone_weight[lo:hi]
                                                         * rows[t, p0:p1])
                out[flush[j], p0:p1] += part
    return out.reshape(filters, out_h, out_w)


def dense_fc(features, weights, layer: LayerSpec) -> np.ndarray:
    """Full dot product per filter, accumulated in input stream order.

    Weights have shape (filters, C, H, W); output is (filters, 1, 1).
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
