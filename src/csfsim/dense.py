"""Dense float32 reference semantics for CONV and FC layers.

These oracles and the streaming engine must agree bit for bit, so the
accumulation discipline is pinned down: channels outermost, then kernel row,
then kernel column. CONV keeps one float32 partial sum per channel per
output element (the engine flushes its register file into the output buffer
once per channel); FC keeps a single flat running sum per output, walking
the input in stream order.

`dense_conv` works through the output in tiles of at most `_TILE_FLOATS`
elements, a block of filters by a block of output pixels, so the tile's
partial sums and its product buffer stay in cache and no step allocates a
temporary. Per channel it first copies the k*k window planes into one
contiguous scratch row each. Each tile then zeroes its partial sums, adds
one product row per kernel position in kernel row then column order, and
adds the partial into the output once. Tiling changes which elements are
computed together, never the sequence of float32 additions any one output
element sees, so the bytes are those of the whole-plane loop.

`dense_conv` also skips dead rows: (filter, channel) rows whose k*k
weights are all +-0.0. Per channel it tiles only the live rows, with the
same tiles and tap order, and adds each tile's partial into those rows of
the output; a channel whose rows are all dead is skipped before its window
planes are copied. Skipping is exact:

- inputs are finite (`as_f32` rejects NaN and Inf), so a dead row's
  partial sum stays +0.0;
- the output never holds -0.0: it starts at +0.0, and a round-to-nearest
  sum is -0.0 only when both operands are;
- so adding that partial is a no-op.
"""

from __future__ import annotations

import numpy as np

from .layers import LayerSpec, output_shape

# float32 elements per dense_conv tile buffer (256 KB), so a tile's
# partial sums and products stay in a per-core L2 cache
_TILE_FLOATS = 1 << 16


def as_f32(values, dims=None) -> np.ndarray:
    """Coerce to a C-contiguous float32 array; rejects NaN/Inf values."""
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains NaN or Inf")
    if dims is not None and arr.shape != tuple(dims):
        raise ValueError(f"expected dims {tuple(dims)}, got {arr.shape}")
    return arr


def pad_channels(features: np.ndarray, pad: int) -> np.ndarray:
    """Zero border of `pad` elements on every side of each channel plane."""
    if pad == 0:
        return features
    return np.pad(features, ((0, 0), (pad, pad), (pad, pad)))


def _window_plane(padded: np.ndarray, chans: int | slice, r: int, c: int,
                  out_h: int, out_w: int, stride: int) -> np.ndarray:
    """The out_h x out_w input samples that kernel position (r, c) touches.

    `chans` picks one channel, giving an (out_h, out_w) view, or a slice
    of channels, giving a (channels, out_h, out_w) view.
    """
    return padded[chans,
                  r:r + (out_h - 1) * stride + 1:stride,
                  c:c + (out_w - 1) * stride + 1:stride]


def dense_conv(features, weights, layer: LayerSpec) -> np.ndarray:
    """Direct convolution over a filter bank of shape (filters, C, K, K).

    The bank's leading extent may be any batch size. Output is
    (filters, out_h, out_w) float32, accumulated channel-major with one
    partial sum per channel.
    """
    if layer.kind != "conv":
        raise ValueError(f"{layer.name}: dense_conv needs a conv layer")
    x = as_f32(features, (layer.channels, layer.height, layer.width))
    w = as_f32(weights)
    if w.ndim != 4 or w.shape[1:] != (layer.channels, layer.kernel, layer.kernel):
        raise ValueError(
            f"{layer.name}: weights {w.shape} do not match "
            f"(*, {layer.channels}, {layer.kernel}, {layer.kernel})"
        )
    out_w, out_h = output_shape(layer)
    k, filters, pixels = layer.kernel, w.shape[0], out_h * out_w
    padded = pad_channels(x, layer.pad)
    out = np.zeros((filters, pixels), np.float32)
    pix_block = min(pixels, _TILE_FLOATS)
    filt_block = max(1, min(filters, _TILE_FLOATS // pix_block))
    partial = np.empty((filt_block, pix_block), np.float32)
    product = np.empty_like(partial)
    windows = np.empty((k * k, out_h, out_w), np.float32)
    rows = windows.reshape(k * k, pixels)
    live = (w != 0).any(axis=(2, 3))
    for chi in range(layer.channels):
        live_rows = np.flatnonzero(live[:, chi])
        if not len(live_rows):
            continue
        for r in range(k):
            for c in range(k):
                windows[r * k + c] = _window_plane(padded, chi, r, c,
                                                   out_h, out_w, layer.stride)
        taps = w[:, chi].reshape(filters, k * k)[live_rows]
        for f0 in range(0, len(taps), filt_block):
            f1 = min(len(taps), f0 + filt_block)
            for p0 in range(0, pixels, pix_block):
                p1 = min(pixels, p0 + pix_block)
                part = partial[:f1 - f0, :p1 - p0]
                prod = product[:f1 - f0, :p1 - p0]
                # start from +0.0 like a zeroed register file, so a lone
                # -0.0 product still sums to +0.0
                part.fill(0.0)
                for t in range(k * k):
                    np.multiply(taps[f0:f1, t, None], rows[t, None, p0:p1],
                                out=prod)
                    np.add(part, prod, out=part)
                out[live_rows[f0:f1], p0:p1] += part
    return out.reshape(filters, out_h, out_w)


def dense_fc(features, weights, layer: LayerSpec) -> np.ndarray:
    """Full dot product per filter, accumulated in input stream order.

    Weights have shape (filters, C, H, W); output is (filters, 1, 1).
    """
    if layer.kind != "fc":
        raise ValueError(f"{layer.name}: dense_fc needs an fc layer")
    x = as_f32(features, (layer.channels, layer.height, layer.width)).ravel()
    w = as_f32(weights)
    if w.ndim != 4 or w.shape[1:] != (layer.channels, layer.height, layer.width):
        raise ValueError(
            f"{layer.name}: weights {w.shape} do not match "
            f"(*, {layer.channels}, {layer.height}, {layer.width})"
        )
    flat = w.reshape(w.shape[0], x.size)
    out = np.zeros(w.shape[0], np.float32)
    for p in range(x.size):
        out += flat[:, p] * x[p]
    return out.reshape(w.shape[0], 1, 1)


def random_sparse_filters(layer: LayerSpec, density: float, seed: int) -> np.ndarray:
    """Deterministic sparse filter bank for a layer.

    Draws from numpy's default PCG64 stream seeded with `seed`: a keep mask
    with nonzero probability `density`, then magnitudes uniform in (0, 1]
    (never exactly zero), then a random sign, in that order. The same seed
    always yields the same bank. Dropped weights are +0.0, never -0.0, so
    an encode/decode roundtrip gives the bank back byte for byte.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if layer.kind == "conv":
        shape = (layer.filters, layer.channels, layer.kernel, layer.kernel)
    else:
        shape = (layer.filters, layer.channels, layer.height, layer.width)
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) < density
    magnitude = 1.0 - rng.random(shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    # zeroed in place: multiplying by the mask would make dropped weights
    # with a negative sign -0.0, and np.where would hold one more
    # bank-sized temporary
    weights = sign * magnitude
    weights[~keep] = 0.0
    return weights.astype(np.float32)
