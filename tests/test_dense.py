"""Dense oracles against independently coded brute-force references."""

import ast
import functools
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csfsim import (LayerSpec, dense, dense_conv, dense_fc, output_shape,
                    random_sparse_filters, tiling)
from csfsim.dense import as_f32


def _brute_conv(x, w, layer):
    """Scalar quadruple-loop reference, float32 at every step.

    Kept deliberately independent of the library: shapes and padding are
    recomputed here, and accumulation runs one scalar at a time with a
    per-channel partial sum.
    """
    c_n, h, wd = x.shape
    m, _, k, _ = w.shape
    p, s = layer.pad, layer.stride
    padded = np.zeros((c_n, h + 2 * p, wd + 2 * p), np.float32)
    padded[:, p:p + h, p:p + wd] = x
    out_h = (h + 2 * p - k) // s + 1
    out_w = (wd + 2 * p - k) // s + 1
    out = np.zeros((m, out_h, out_w), np.float32)
    for j in range(m):
        for y in range(out_h):
            for xo in range(out_w):
                acc = np.float32(0.0)
                for chi in range(c_n):
                    part = np.float32(0.0)
                    for r in range(k):
                        for c in range(k):
                            term = np.float32(w[j, chi, r, c]
                                              * padded[chi, y * s + r, xo * s + c])
                            part = np.float32(part + term)
                    acc = np.float32(acc + part)
                out[j, y, xo] = acc
    return out


def _plane_conv(x, w, layer):
    """Whole-plane vectorized reference: one product per kernel position.

    The loop dense_conv ran before it was tiled. Every channel keeps a
    partial sum the size of the whole output, and each kernel position adds
    one (filters, out_h, out_w) product into it.
    """
    out_w, out_h = output_shape(layer)
    k, s = layer.kernel, layer.stride
    padded = np.pad(x, ((0, 0), (layer.pad, layer.pad), (layer.pad, layer.pad)))
    out = np.zeros((w.shape[0], out_h, out_w), np.float32)
    for chi in range(layer.channels):
        partial = np.zeros_like(out)
        for r in range(k):
            for c in range(k):
                plane = padded[chi, r:r + (out_h - 1) * s + 1:s,
                               c:c + (out_w - 1) * s + 1:s]
                partial += w[:, chi, r, c][:, None, None] * plane[None, :, :]
        out += partial
    return out


def _matches_plane_conv_bytewise(x, w, layer):
    """Byte comparison, so a -0.0 where the reference has +0.0 shows."""
    return dense_conv(x, w, layer).tobytes() == _plane_conv(x, w, layer).tobytes()


def _bank_where(keep, negative_zero, seed):
    """Bank with nonzero weights in [-1, 1] where `keep` holds.

    The other weights are zero: -0.0 with probability `negative_zero`,
    else +0.0.
    """
    rng = np.random.default_rng(seed)
    shape = keep.shape
    nonzero = (1.0 - rng.random(shape)) * np.where(rng.random(shape) < 0.5,
                                                   -1.0, 1.0)
    zeros = np.where(rng.random(shape) < negative_zero, -0.0, 0.0)
    return np.where(keep, nonzero, zeros).astype(np.float32)


@st.composite
def _sparse_banks(draw):
    """Banks with zeros at single weights.

    Each channel keeps each of its weights with its own drawn share, so
    dead taps, rows and channels and wholly dense channels all occur.
    """
    filters = draw(st.integers(1, 20))
    channels = draw(st.integers(1, 4))
    kernel = draw(st.integers(1, 3))
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=channels,
                           max_size=channels))
    negative_zero = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    shape = (filters, channels, kernel, kernel)
    keep = (np.random.default_rng(seed).random(shape)
            < np.reshape(shares, (1, channels, 1, 1)))
    return _bank_where(keep, negative_zero, seed)


def _pinned_keep(edit=None):
    """A 6-filter, 3-channel 3x3 mask keeping about a third of the weights.

    `edit`, if given, changes it in place.
    """
    keep = np.random.default_rng(5).random((6, 3, 3, 3)) < 0.35
    if edit:
        edit(keep)
    return keep


def _dense_tap(keep):
    keep[:, 1, 1, 1] = True


def _last_tap_only(keep):
    keep[:, 1] = False
    keep[2, 1, 2, 2] = True


def _zero_channel(keep):
    keep[:, 1] = False


def _brute_fc(x, w):
    """Scalar mat-vec with one flat running float32 sum per output."""
    flat_x = x.ravel()
    flat_w = w.reshape(w.shape[0], -1)
    out = np.zeros((w.shape[0], 1, 1), np.float32)
    for j in range(w.shape[0]):
        acc = np.float32(0.0)
        for p in range(flat_x.size):
            acc = np.float32(acc + np.float32(flat_w[j, p] * flat_x[p]))
        out[j, 0, 0] = acc
    return out


def _rand_input(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 2.0 - 1.0).astype(np.float32)


# the pixel block dense_conv tiles by: at 1 every tile is one output
# row, at 2^60 the layer is one tile. The ids are the names these cases
# had under the deleted compaction gate, kept so the case ids stay stable
_TILES = pytest.mark.parametrize("pixel_block", [1, 1 << 60],
                                 ids=["gate-1", "gate-off"])


@functools.lru_cache(maxsize=None)
def _paths_case(density):
    """A 16-filter, 3-channel layer, its bank, input and _brute_conv bytes."""
    layer = LayerSpec("paths", "conv", 3, 9, 9, 3, 1, 1, 16)
    bank = random_sparse_filters(layer, density, 30)
    x = _rand_input((3, 9, 9), 31)
    return layer, bank, x, _brute_conv(x, bank, layer).tobytes()


class TestAsF32:
    def test_coerces_lists(self):
        arr = as_f32([[1, 2], [3, 4]])
        assert arr.dtype == np.float32 and arr.flags.c_contiguous

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_f32([1.0, float("nan")])

    # the check reads only the extremes, which an infinity always is
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinities(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_f32([[0.5, bad], [-1.0, 2.0]])

    def test_empty_passes(self):
        assert as_f32(np.zeros((0, 3))).shape == (0, 3)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError, match="dims"):
            as_f32(np.zeros((2, 3)), dims=(3, 2))


class TestDenseConv:
    def test_zero_weights_zero_output(self):
        layer = LayerSpec("z", "conv", 2, 5, 5, 3, 1, 0, 4)
        out = dense_conv(_rand_input((2, 5, 5), 0), np.zeros((4, 2, 3, 3)), layer)
        assert out.shape == (4, 3, 3)
        assert not out.any()

    def test_identity_kernel_copies_plane(self):
        layer = LayerSpec("i", "conv", 1, 6, 6, 1, 1, 0, 3)
        x = _rand_input((1, 6, 6), 1)
        w = np.ones((3, 1, 1, 1), np.float32)
        out = dense_conv(x, w, layer)
        for j in range(3):
            assert np.array_equal(out[j], x[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_bitwise(self, seed):
        layer = LayerSpec("r", "conv", 4, 8, 8, 3, 1, 0, 8)
        bank = random_sparse_filters(layer, 0.7, seed)
        x = _rand_input((4, 8, 8), seed + 100)
        assert np.array_equal(dense_conv(x, bank, layer),
                              _brute_conv(x, bank, layer))

    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 1), (2, 2)])
    def test_matches_brute_force_strided_padded(self, stride, pad):
        layer = LayerSpec("sp", "conv", 3, 9, 7, 3, stride, pad, 5)
        bank = random_sparse_filters(layer, 1.0, 42)
        x = _rand_input((3, 9, 7), 43)
        assert np.array_equal(dense_conv(x, bank, layer),
                              _brute_conv(x, bank, layer))

    def test_pixels_not_a_multiple_of_the_pixel_block(self):
        # 784 pixels at a pixel block of 100: 3-row tiles, nine of 84
        # pixels and one of 28
        layer = LayerSpec("fb", "conv", 3, 28, 28, 1, 1, 0, 100)
        bank = random_sparse_filters(layer, 0.5, 1)
        x = _rand_input((3, 28, 28), 2)
        with mock.patch.object(dense, "_PIXEL_BLOCK", 100):
            assert _matches_plane_conv_bytewise(x, bank, layer)

    def test_plane_larger_than_one_tile(self):
        # 258 x 258 output pixels in 15-row tiles: 17 of 3870 pixels and
        # a short last one of 774
        layer = LayerSpec("pb", "conv", 1, 260, 260, 3, 1, 0, 1)
        bank = random_sparse_filters(layer, 1.0, 3)
        x = _rand_input((1, 260, 260), 4)
        assert _matches_plane_conv_bytewise(x, bank, layer)

    @pytest.mark.parametrize("kernel", [5, 11])
    def test_strided_padded_tiles(self, kernel):
        # a pixel block of 40 cuts the 16x15 output of the 5x5 kernel
        # into 2-row tiles and the 13x12 one of the 11x11 kernel into
        # 3-row tiles and a short last one, each tile's windows starting
        # two input rows per output row further down
        layer = LayerSpec("sp", "conv", 3, 31, 29, kernel, 2, 2, 70)
        bank = random_sparse_filters(layer, 0.6, kernel)
        x = _rand_input((3, 31, 29), kernel + 1)
        with mock.patch.object(dense, "_PIXEL_BLOCK", 40):
            assert _matches_plane_conv_bytewise(x, bank, layer)

    def test_empty_bank(self):
        layer = LayerSpec("e", "conv", 2, 5, 5, 3, 1, 0, 4)
        out = dense_conv(_rand_input((2, 5, 5), 5), np.zeros((0, 2, 3, 3)),
                         layer)
        assert out.shape == (0, 3, 3) and out.dtype == np.float32

    def test_negative_zero_products_sum_to_positive_zero(self):
        # every product is -0.0; a zeroed partial sum turns them into +0.0
        layer = LayerSpec("nz", "conv", 2, 9, 9, 3, 2, 1, 6)
        bank = -np.ones((6, 2, 3, 3), np.float32)
        x = np.zeros((2, 9, 9), np.float32)
        assert _matches_plane_conv_bytewise(x, bank, layer)
        assert not np.signbit(dense_conv(x, bank, layer)).any()

    # every filter nonzero at channel 1's centre tap
    @example(block=7, side=12, stride=1, negative_input=False, seed=1,
             bank=_bank_where(_pinned_keep(_dense_tap), 0.5, 1))
    # channel 1's only nonzero weight sits at its last tap
    @example(block=7, side=12, stride=1, negative_input=False, seed=2,
             bank=_bank_where(_pinned_keep(_last_tap_only), 0.5, 2))
    # channel 1 wholly zero, between two live channels
    @example(block=7, side=12, stride=1, negative_input=False, seed=3,
             bank=_bank_where(_pinned_keep(_zero_channel), 0.5, 3))
    # every zero -0.0 and every input negative, so skipped products are
    # +0.0 and -0.0 alike
    @example(block=7, side=12, stride=2, negative_input=True, seed=4,
             bank=_bank_where(_pinned_keep(), 1.0, 4))
    @settings(max_examples=80, deadline=None)
    @given(block=st.integers(1, 200), side=st.integers(3, 16),
           stride=st.integers(1, 2), negative_input=st.booleans(),
           seed=st.integers(0, 2**32 - 1), bank=_sparse_banks())
    def test_any_tile_size_matches_plane_reference(self, block, side,
                                                   stride, negative_input,
                                                   seed, bank):
        # pixel blocks of 1 to 200 split small planes into tiles of one
        # to a whole plane's rows, most with a short last tile; the banks
        # have zeros at single weights, some stored as -0.0, and the
        # reference multiplies every weight
        filters, channels, kernel, _ = bank.shape
        layer = LayerSpec("t", "conv", channels, side, side, kernel, stride,
                          1, filters)
        x = _rand_input((channels, side, side), seed)
        if negative_input:
            x = -np.abs(x)
        with mock.patch.object(dense, "_PIXEL_BLOCK", block):
            assert _matches_plane_conv_bytewise(x, bank, layer)

    @pytest.mark.parametrize("density", [0.1, 0.7], ids=["d0.1", "d0.7"])
    @_TILES
    def test_partial_sums_for_summed_filters_only(self, pixel_block, density):
        # at d0.1 the channels hold filters with none, one and several
        # products, at d0.7 only filters with several
        layer = LayerSpec("sel", "conv", 3, 9, 9, 3, 1, 1, 16)
        bank = random_sparse_filters(layer, density, 21)
        products = np.count_nonzero(bank.reshape(16, 3, 9), axis=2)
        kinds = {min(n, 2) for n in products.ravel().tolist()}
        assert kinds == ({0, 1, 2} if density < 0.5 else {2})
        x = _rand_input((3, 9, 9), 22)
        with mock.patch.object(dense, "_PIXEL_BLOCK", pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()

    @_TILES
    def test_lone_negative_zero_product(self, pixel_block):
        # filter 0 takes one product per channel, a positive weight on
        # input samples that are -0.0 in channel 1 and in half of channel
        # 0; filter 1 takes two, filters 2 and 3 none. A lone product
        # goes straight into the output, which must stay free of -0.0
        layer = LayerSpec("nz1", "conv", 2, 6, 6, 3, 1, 1, 4)
        bank = np.zeros((4, 2, 3, 3), np.float32)
        bank[0, :, 1, 1] = 0.5
        bank[1, :, 0, 0] = bank[1, :, 2, 2] = -1.5
        x = np.full((2, 6, 6), -0.0, np.float32)
        x[0, :3] = _rand_input((3, 6), 23)
        with mock.patch.object(dense, "_PIXEL_BLOCK", pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()
        assert not (np.signbit(out) & (out == 0)).any()

    def test_lone_and_summed_filters_share_a_tap_in_row_tiles(self):
        # channel 0's centre tap adds into two output rows and a partial
        # sum: filters 0 and 2 take their channel's only product there,
        # filter 1 a second one after tap 0. Their weights are negative
        # over an input that is +0.0 in its top four rows, so the lone
        # products there are -0.0. Channel 1 gives filter 0 another lone
        # product and filter 3 a partial sum of nine. The 7-wide output
        # runs in 3-row tiles and a short last one of 1 row
        layer = LayerSpec("mix", "conv", 2, 7, 7, 3, 1, 1, 4)
        bank = np.zeros((4, 2, 3, 3), np.float32)
        bank[:3, 0, 1, 1] = [-0.5, -1.5, -2.0]
        bank[1, 0, 0, 0] = 0.75
        bank[0, 1, 2, 2] = 1.25
        bank[3, 1] = _rand_input((3, 3), 35)
        x = _rand_input((2, 7, 7), 36)
        x[0, :4] = 0.0
        with mock.patch.object(dense, "_PIXEL_BLOCK", 21):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()
        assert not (np.signbit(out) & (out == 0)).any()

    @pytest.mark.parametrize("density", [0.1, 0.6], ids=["d0.1", "d0.6"])
    def test_output_row_wider_than_the_pixel_block(self, density):
        # 4100-pixel output rows, wider than the 4096-pixel block, run in
        # one-row tiles; d0.1 lists every channel, d0.6 multiplies every
        # weight
        layer = LayerSpec("wide", "conv", 2, 3, 4100, 3, 1, 1, 8)
        assert output_shape(layer)[0] > dense._PIXEL_BLOCK
        bank = random_sparse_filters(layer, density, 37)
        x = _rand_input((2, 3, 4100), 38)
        assert _matches_plane_conv_bytewise(x, bank, layer)

    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0],
                             ids=["d0.1", "d0.5", "d1.0"])
    @_TILES
    @pytest.mark.parametrize("share", [0, 2.0], ids=["dense", "listed"])
    def test_dense_and_listed_channels_agree(self, share, pixel_block,
                                             density):
        # a share of 0 multiplies every weight of every channel with a
        # nonzero one, a share of 2.0 lists the pairs of every channel
        layer, bank, x, expected = _paths_case(density)
        with mock.patch.multiple(dense, _DENSE_SHARE=share,
                                 _PIXEL_BLOCK=pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == expected

    @_TILES
    def test_channels_on_both_sides_of_the_dense_share(self, pixel_block):
        # 45 weights per channel, of which 18 are the dense share: the
        # channels hold all 45, 18, 17, one and none, and the zeros are
        # -0.0 or +0.0 alike
        layer = LayerSpec("share", "conv", 5, 7, 7, 3, 1, 1, 5)
        at = dense._DENSE_SHARE * 45
        assert at == 18
        rng = np.random.default_rng(24)
        keep = np.zeros((5, 5, 3, 3), bool)
        for channel, count in enumerate([45, 18, 17, 1, 0]):
            chosen = keep[:, channel].reshape(-1)
            chosen[rng.permutation(45)[:count]] = True
            keep[:, channel] = chosen.reshape(5, 3, 3)
        bank = _bank_where(keep, 0.5, 25)
        counts = np.count_nonzero(bank, axis=(0, 2, 3)).tolist()
        assert counts == [45, 18, 17, 1, 0]
        x = _rand_input((5, 7, 7), 26)
        with mock.patch.object(dense, "_PIXEL_BLOCK", pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()
        assert not (np.signbit(out) & (out == 0)).any()

    def test_list_group_plans_each_channel(self):
        # the group is channels 1 to 3 of a 4-filter, 3x3 bank, 36 cells
        # a channel: channel 1 holds all 36 weights, channel 2 gives
        # filter 3 products at taps 0 and 4 and filter 1 one at tap 4,
        # and channel 3 holds only zeros, some -0.0
        bank = np.zeros((4, 4, 3, 3), np.float32)
        bank[:, 0] = 7.0
        bank[:, 1] = 1.0 + np.arange(36).reshape(4, 3, 3)
        bank[3, 2, 0, 0], bank[3, 2, 1, 1], bank[1, 2, 1, 1] = -1.5, 2.0, 0.5
        bank[:2, 3] = -0.0
        dense_plan, (pairs, flush), (no_pairs, no_flush) = dense._list_group(
            bank, 1, 4)
        assert dense_plan is None
        # filter 1's only product goes straight into its output row, and
        # filter 3's two into the first partial-sum row, row 4
        assert [(target.tolist(), weight.tolist())
                for target, weight in pairs] == [
            ([4], [[-1.5]]), ([], []), ([], []), ([], []),
            ([1, 4], [[0.5], [2.0]]), ([], []), ([], []), ([], []), ([], [])]
        assert flush.tolist() == [3]
        assert len(no_pairs) == 9 and not any(t.size for t, _ in no_pairs)
        assert no_flush.size == 0

    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0],
                             ids=["d0.1", "d0.5", "d1.0"])
    @_TILES
    @pytest.mark.parametrize("share", [0, 0.4, 2.0],
                             ids=["dense", "shipped", "listed"])
    @pytest.mark.parametrize("group", [1, 2, 3],
                             ids=["group-1", "group-2", "group-3"])
    def test_channel_groups_agree(self, group, share, pixel_block, density):
        # a channel holds 16 filters x 9 taps = 144 cells: budgets of one,
        # two and three channels' cells list the 3 channels one at a
        # time, as a group of two and a short last group of one, and all
        # at once
        layer, bank, x, expected = _paths_case(density)
        with mock.patch.multiple(dense, _GROUP_CELLS=group * 144,
                                 _DENSE_SHARE=share, _PIXEL_BLOCK=pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == expected

    @_TILES
    def test_dense_and_empty_channels_at_group_edges(self, pixel_block):
        # groups of two channels: channels 0 and 1 are dense, so their
        # group lists nothing; channel 2, first of the next group, is
        # empty, and so is channel 6, alone in the short last group.
        # Channels 3 to 5 are listed, with one product, a few and 17 of
        # the 45 weights, just under the dense share
        layer = LayerSpec("edges", "conv", 7, 7, 7, 3, 1, 1, 5)
        rng = np.random.default_rng(32)
        keep = np.zeros((5, 7, 3, 3), bool)
        for channel, count in enumerate([45, 30, 0, 1, 6, 17, 0]):
            chosen = keep[:, channel].reshape(-1)
            chosen[rng.permutation(45)[:count]] = True
            keep[:, channel] = chosen.reshape(5, 3, 3)
        bank = _bank_where(keep, 0.5, 33)
        counts = np.count_nonzero(bank, axis=(0, 2, 3)).tolist()
        assert counts == [45, 30, 0, 1, 6, 17, 0]
        x = _rand_input((7, 7, 7), 34)
        with mock.patch.multiple(dense, _GROUP_CELLS=2 * 45,
                                 _PIXEL_BLOCK=pixel_block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()

    @pytest.mark.parametrize("group", [0, 1, 1 << 60],
                             ids=["group-0", "group-1", "whole"])
    def test_empty_bank_in_any_group(self, group):
        # no filters means no cells: the group size must not divide by
        # the cells of a channel
        layer = LayerSpec("e", "conv", 3, 5, 5, 3, 1, 0, 4)
        with mock.patch.object(dense, "_GROUP_CELLS", group):
            out = dense_conv(_rand_input((3, 5, 5), 5),
                             np.zeros((0, 3, 3, 3)), layer)
        assert out.shape == (0, 3, 3) and out.dtype == np.float32

    @pytest.mark.parametrize("block", [7, 1 << 12], ids=["block-7", "block"])
    def test_dense_channel_of_negative_zero_products(self, block):
        # channel 0 holds every weight, all negative, over an input that
        # is +0.0 but for its last row and column: tap 0 only reads
        # zeros and padding, so its products, which a dense channel
        # writes as the partial sums, are all -0.0, and so is every
        # product of the pixels whose window holds zeros only. Channel 1
        # adds one product into filter 1
        layer = LayerSpec("nzd", "conv", 2, 6, 6, 3, 1, 1, 4)
        bank = np.zeros((4, 2, 3, 3), np.float32)
        bank[:, 0] = -(1.0 - np.random.default_rng(27).random((4, 3, 3)))
        bank[1, 1, 1, 1] = 2.0
        x = np.zeros((2, 6, 6), np.float32)
        x[0, -1] = x[0, :, -1] = 1.0 + _rand_input(6, 28)
        x[1] = _rand_input((6, 6), 29)
        with mock.patch.object(dense, "_PIXEL_BLOCK", block):
            out = dense_conv(x, bank, layer)
        assert out.tobytes() == _brute_conv(x, bank, layer).tobytes()
        assert not (np.signbit(out) & (out == 0)).any()
        assert (out[[0, 2, 3], :4, :4] == 0).all()

    def test_linear_in_input(self):
        layer = LayerSpec("l", "conv", 2, 6, 6, 3, 1, 1, 4)
        bank = random_sparse_filters(layer, 1.0, 7)
        x = _rand_input((2, 6, 6), 8)
        # float32 sums do not commute with scaling exactly, so allow
        # slack where terms nearly cancel
        lhs = dense_conv(3.0 * x, bank, layer)
        rhs = 3.0 * dense_conv(x, bank, layer)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)

    def test_weight_shape_mismatch(self):
        layer = LayerSpec("m", "conv", 2, 6, 6, 3, 1, 0, 4)
        with pytest.raises(ValueError, match="weights"):
            dense_conv(np.zeros((2, 6, 6)), np.zeros((4, 2, 5, 5)), layer)

    def test_input_shape_mismatch(self):
        layer = LayerSpec("m", "conv", 2, 6, 6, 3, 1, 0, 4)
        with pytest.raises(ValueError, match="dims"):
            dense_conv(np.zeros((3, 6, 6)), np.zeros((4, 2, 3, 3)), layer)

    def test_kind_guard(self):
        layer = LayerSpec("f", "fc", 2, 4, 4, 1, 1, 0, 4)
        with pytest.raises(ValueError,
                           match="^f: dense_conv needs a conv layer$"):
            dense_conv(np.zeros((2, 4, 4)), np.zeros((4, 2, 4, 4)), layer)


@pytest.mark.parametrize("module", [dense, tiling], ids=["dense", "tiling"])
def test_oracle_imports_only_layers(module):
    # the oracle must stay independent of the codec and the engine it
    # checks, and the planners are shape arithmetic on layer specs alone
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                imported.add("." + (node.module or ""))
            elif node.module.split(".")[0] == "csfsim":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names
                            if alias.name.split(".")[0] == "csfsim")
    assert imported == {".layers"}


class TestDenseFc:
    def test_identity_weights_permute_input(self):
        layer = LayerSpec("p", "fc", 2, 2, 2, 1, 1, 0, 8)
        x = _rand_input((2, 2, 2), 3)
        w = np.zeros((8, 2, 2, 2), np.float32)
        order = [5, 0, 3, 7, 2, 1, 6, 4]
        for j, src in enumerate(order):
            w.reshape(8, 8)[j, src] = 1.0
        out = dense_fc(x, w, layer)
        assert np.array_equal(out.ravel(), x.ravel()[order])

    def test_zero_input_zero_output(self):
        layer = LayerSpec("z", "fc", 2, 3, 3, 1, 1, 0, 5)
        bank = random_sparse_filters(layer, 1.0, 9)
        assert not dense_fc(np.zeros((2, 3, 3)), bank, layer).any()

    def test_matches_brute_force_bitwise(self):
        layer = LayerSpec("r", "fc", 2, 4, 4, 1, 1, 0, 16)
        bank = random_sparse_filters(layer, 0.8, 10)
        x = _rand_input((2, 4, 4), 11)
        assert np.array_equal(dense_fc(x, bank, layer), _brute_fc(x, bank))

    def test_kind_guard(self):
        layer = LayerSpec("c", "conv", 2, 4, 4, 3, 1, 0, 4)
        with pytest.raises(ValueError, match="fc"):
            dense_fc(np.zeros((2, 4, 4)), np.zeros((4, 2, 4, 4)), layer)


class TestRandomSparseFilters:
    def test_density_zero_all_zero(self):
        layer = LayerSpec("d0", "conv", 4, 8, 8, 3, 1, 0, 8)
        assert not random_sparse_filters(layer, 0.0, 1).any()

    def test_density_one_no_zeros(self):
        layer = LayerSpec("d1", "conv", 4, 8, 8, 3, 1, 0, 8)
        assert (random_sparse_filters(layer, 1.0, 1) != 0).all()

    def test_density_statistics(self):
        # 128 * 16 * 9 = 18432 weights, enough for a +-0.05 window
        layer = LayerSpec("st", "conv", 16, 8, 8, 3, 1, 0, 128)
        bank = random_sparse_filters(layer, 0.3, 5)
        observed = np.count_nonzero(bank) / bank.size
        assert abs(observed - 0.3) < 0.05

    def test_seed_determinism(self):
        layer = LayerSpec("s", "conv", 3, 6, 6, 3, 1, 0, 5)
        a = random_sparse_filters(layer, 0.4, 77)
        b = random_sparse_filters(layer, 0.4, 77)
        assert np.array_equal(a, b)
        c = random_sparse_filters(layer, 0.4, 78)
        assert not np.array_equal(a, c)

    def test_values_bounded(self):
        layer = LayerSpec("b", "conv", 3, 6, 6, 3, 1, 0, 5)
        bank = random_sparse_filters(layer, 1.0, 2)
        assert (np.abs(bank) <= 1.0).all()
        assert (np.abs(bank) > 0.0).all()

    def test_fc_bank_shape(self):
        layer = LayerSpec("f", "fc", 3, 4, 5, 1, 1, 0, 6)
        assert random_sparse_filters(layer, 0.5, 0).shape == (6, 3, 4, 5)

    def test_density_out_of_range(self):
        layer = LayerSpec("e", "conv", 1, 4, 4, 3, 1, 0, 1)
        with pytest.raises(ValueError, match="density"):
            random_sparse_filters(layer, 1.5, 0)


def _whole_bank_reference(layer, density, seed):
    """The generator as three whole-bank float64 draws, cast at the end."""
    if layer.kind == "conv":
        shape = (layer.filters, layer.channels, layer.kernel, layer.kernel)
    else:
        shape = (layer.filters, layer.channels, layer.height, layer.width)
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) < density
    magnitude = 1.0 - rng.random(shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    weights = sign * magnitude
    weights[~keep] = 0.0
    return weights.astype(np.float32)


# shapes for the pinned digests: whole layers, a bank of exactly one
# generation chunk (128 * 128 * 2 * 2 = 65536 weights) and one of 4.5
# chunks (256 * 128 * 3 * 3)
_GOLDEN_LAYERS = {
    "vgg16-conv1-1": LayerSpec("CONV1-1", "conv", 3, 224, 224, 3, 1, 1, 64),
    "alexnet-conv1": LayerSpec("CONV1", "conv", 3, 227, 227, 11, 4, 0, 96),
    "conv-one-chunk": LayerSpec("C", "conv", 128, 8, 8, 2, 1, 0, 128),
    "conv-4.5-chunks": LayerSpec("C", "conv", 128, 28, 28, 3, 1, 1, 256),
    "lenet-fc1": LayerSpec("FC1", "fc", 50, 4, 4, 1, 1, 0, 500),
    "lenet-fc2": LayerSpec("FC2", "fc", 500, 1, 1, 1, 1, 0, 10),
}

# sha256 over the banks of seeds 0, 11 and 4001 in turn, as the
# whole-bank three-draw generator wrote them
_GOLDEN_DIGESTS = {
    ("vgg16-conv1-1", 0.0): "92e3526074bf8e81011b4d0e3c4f91ae99dddafd62b216c28087afdbee919c34",
    ("vgg16-conv1-1", 0.1): "b76e8ae316b2c1cd2c58d13a06fa95402f59eb203b0d261cb52eee3004667a2f",
    ("vgg16-conv1-1", 0.5): "fb858b05b715e663e5c885f48568c863f5a792e3d4d09900eebc5908a840e322",
    ("vgg16-conv1-1", 1.0): "5724f904c8884bac127190f0bfa65377d65dde020ea17f26b69a46e105c36fcd",
    ("alexnet-conv1", 0.0): "1bdf4e8a74a5c9e1ee65417c833253a279f11719caf3233c80df4dff7258f805",
    ("alexnet-conv1", 0.1): "10c4fc7b836fe4d6d8354ecfcb68a201691e8f57aaaaadc1e4045bd74cf98bd6",
    ("alexnet-conv1", 0.5): "03536dc87e9ade16dd9cdedefa6e93ff7196b8ac0e4babc320ad3d18336b1481",
    ("alexnet-conv1", 1.0): "dd0c0236bfe46efaee27a5be482b6fbcf129026ed2a152ae449c1cbe7a54361c",
    ("conv-one-chunk", 0.0): "599c1bb5ffd4b87229a81958f33f1060821cd01cd7aa7ccafa0d862f4522f3f6",
    ("conv-one-chunk", 0.1): "22e2c1c5d79138a5dd0f746b6bb5d15bb2b79e55d88800585fbf53d3e1200566",
    ("conv-one-chunk", 0.5): "8166b6a5bf79f54e7fa75dc43e544995415cb027026fd62d091babe79ea7f9b2",
    ("conv-one-chunk", 1.0): "5e55e9410937f34380b146bcecf8a8ac6e2b89596558e94ce968f6901f48bc96",
    ("conv-4.5-chunks", 0.0): "5954ceccd88af0372fdb44664cf8ea76c5e24e1f88b64c87f911abac9ba149fd",
    ("conv-4.5-chunks", 0.1): "3a9ef3aa410e126b1e050e19b5958e3b6e9fec69995135edd0c36ce3b90b5569",
    ("conv-4.5-chunks", 0.5): "53a2706badb8834cea28663aa3d4082b18c91362b9cee274d239a7acee4fe02a",
    ("conv-4.5-chunks", 1.0): "c8cf586bcabc2022ea57bc41f1f3c730ab3be641b00336bcd5cab08b8bc860e8",
    ("lenet-fc1", 0.0): "58db5d87ffe2173badb59360da4e636ae85862569d4aae0097c7083cabf9763a",
    ("lenet-fc1", 0.1): "e7bd91fbe94807cb5ae667077c0aa74faf55a9ab0e4910d5ceb9e5093563f6f5",
    ("lenet-fc1", 0.5): "fcda4538cc8104ef9fb350cc399da73cc4cd451ae9e6ff67204aa4681dd2f137",
    ("lenet-fc1", 1.0): "514e9abafa955b731baed1e1c061ebf7f7d06e7582ca96cc6164c4242a110433",
    ("lenet-fc2", 0.0): "0946e2eb0fb9ea7ddd935efd1922bc7d1f27101c69ce6d2f5145c7ee28f1b6ba",
    ("lenet-fc2", 0.1): "374b93fdc0e562b4f2cf4762c9e901bde69e2109b2eaa4553499fe4f36b65869",
    ("lenet-fc2", 0.5): "0561c6caa1afd8b939a17a8452ba77e4a2aba4f2adf564f3df0fba824d75b94c",
    ("lenet-fc2", 1.0): "5299a2259616ef771ab280d30e1004dc95f461d8a1312a0de43353d501ac717c",
}


class TestGeneratedBytes:
    @pytest.mark.parametrize("name,density", sorted(_GOLDEN_DIGESTS))
    def test_pinned_digest(self, name, density):
        digest = hashlib.sha256()
        for seed in (0, 11, 4001):
            digest.update(random_sparse_filters(
                _GOLDEN_LAYERS[name], density, seed).tobytes())
        assert digest.hexdigest() == _GOLDEN_DIGESTS[name, density]

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(["conv", "fc"]),
           st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
           st.integers(1, 6),
           st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.integers(0, 2**64 - 1))
    def test_any_chunk_equals_whole_bank_draws(self, data, kind, channels,
                                               side, kernel, filters,
                                               density, seed):
        layer = LayerSpec("g", kind, channels, side, side + 1,
                          min(kernel, side), 1, 0, filters)
        expected = _whole_bank_reference(layer, density, seed)
        chunk = data.draw(st.integers(1, expected.size + 1), label="chunk")
        with mock.patch.object(dense, "_GEN_CHUNK", chunk):
            bank = random_sparse_filters(layer, density, seed)
        assert bank.shape == expected.shape
        assert bank.tobytes() == expected.tobytes()
        assert not np.signbit(bank[bank == 0]).any()
