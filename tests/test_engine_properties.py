"""Property tests: the engine reproduces the dense oracles bytewise.

Extents stay small so the suite runs in seconds. Input features are any
float32 in [-2, 2], signed zeros and subnormals included; densities are
anywhere in [0, 1]; zero weights are optionally -0.0, as a bank file may
hold them.

- batched engine == oracle: conv or fc, 1 to 4 channels, planes of 1 to
  12 rows and columns, kernel 1 to 5 (at most the padded plane), stride
  1 to 3, pad 0 to 2, 0 to 12 filters, batches of 1 to 12 filters;
- `run_conv` with its one budget, `_BLOCK_FLOATS`, patched to 1 to 300
  floats == oracle, with the unpatched run's counters, so blocks split
  mid-layer, some hold no entries, and one-channel blocks run in tiles
  of whole output rows, one row each or with a short last tile: 1 to 6
  channels, planes of 1 to 10, kernel 1 to 3, stride 1 to 2, pad 0 to 1,
  1 to 9 filters; pinned one-channel examples add a short last tile,
  stride 2 with pad 1, and one-row tiles where a single output row's
  registers exceed the budget, each with its tile rows checked;
- the scalar reference `EngineContext.run` (`tests/scalar_engine.py`)
  == `run_conv`, output bytes and counters: 1 to 3
  channels, planes of 1 to 6, kernel 1 to 3, stride 1 to 2, pad 0 to 1,
  1 to 6 filters;
- `stack_trace` summed over the stacks, from the bank's nonzeros alone ==
  `run_layer_batched`'s counters, within the first property's bounds;
- pinned: one-channel blocks in row tiles with a short last tile, and
  multi-channel blocks, at d0.1 (filters with no, one and several
  products in a channel) and d0.7, == oracle and scalar reference; a
  lone product of -0.0, a rank-0 register holding -0.0, leaves no -0.0
  in the output; 13x13 and 16x16 kernels over one window, whose
  registers take 169 and 256 products at d1.0, with an empty channel,
  an empty block or no entry, == oracle and scalar reference;
- `run_conv`'s set-up in intp, as a layer of 2**31 cells or more takes
  it, == its narrow set-up, output bytes and counters, from int8 to
  int32, and a stream of no filter runs.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (LayerSpec, TraceCounters, dense_conv, dense_fc,
                    encode_csf, output_shape, random_sparse_filters, run_conv,
                    run_layer_batched, stack_filters, stack_trace)
from csfsim import engine
from scalar_engine import EngineContext

_FEATURES = st.floats(-2.0, 2.0, width=32)


def _draw_bank(draw, layer, filters):
    """A generated bank of `filters` filters; zero weights maybe -0.0."""
    # LayerSpec needs at least one filter; an empty bank is sliced here
    bank = random_sparse_filters(layer, draw(st.floats(0.0, 1.0)),
                                 draw(st.integers(0, 2**32 - 1)))[:filters]
    if draw(st.booleans()):
        # bank files may hold -0.0 where a generated bank holds +0.0
        bank[bank == 0] = -0.0
    return bank


def _draw_features(draw, layer):
    return draw(arrays(np.float32, (layer.channels, layer.height, layer.width),
                       elements=_FEATURES))


@st.composite
def conv_cases(draw, channels, side, kernel, stride, pad, filters):
    """(layer, bank, features) for a conv layer within the given bounds."""
    c = draw(st.integers(1, channels))
    height, width = draw(st.integers(1, side)), draw(st.integers(1, side))
    p = draw(st.integers(0, pad))
    k = draw(st.integers(1, min(kernel, height + 2 * p, width + 2 * p)))
    f = draw(st.integers(1, filters))
    layer = LayerSpec("p", "conv", c, height, width, k,
                      draw(st.integers(1, stride)), p, f)
    return layer, _draw_bank(draw, layer, f), _draw_features(draw, layer)


@st.composite
def layer_cases(draw):
    """(layer, bank, features, batch size) for one generated layer."""
    kind = draw(st.sampled_from(["conv", "fc"]))
    channels = draw(st.integers(1, 4))
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pad = draw(st.integers(0, 2)) if kind == "conv" else 0
    kernel = draw(st.integers(1, min(5, height + 2 * pad, width + 2 * pad)))
    stride = draw(st.integers(1, 3))
    filters = draw(st.integers(0, 12))
    layer = LayerSpec("p", kind, channels, height, width, kernel, stride, pad,
                      max(filters, 1))
    bank = _draw_bank(draw, layer, filters)
    return layer, bank, _draw_features(draw, layer), draw(st.integers(1, 12))


def _whole_stack(bank):
    return encode_csf(stack_filters(bank, 0, bank.shape[0]), "conv")


@settings(max_examples=200, deadline=None)
@given(layer_cases())
def test_batched_engine_equals_oracle_bytewise(case):
    layer, bank, features, batch = case
    oracle = dense_conv if layer.kind == "conv" else dense_fc
    expected = oracle(features, bank, layer)
    actual, _ = run_layer_batched(bank, features, layer, batch)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _run_conv_patched(layer, bank, features, block):
    """run_conv's output under a patched budget, checked against the
    oracle and the unpatched run's counters."""
    stream = _whole_stack(bank)
    _, expected_counters = run_conv(stream, features, layer)
    with mock.patch.object(engine, "_BLOCK_FLOATS", block):
        actual, counters = run_conv(stream, features, layer)
    assert actual.tobytes() == dense_conv(features, bank, layer).tobytes()
    assert vars(counters) == vars(expected_counters)
    return actual


@settings(max_examples=150, deadline=None)
@given(conv_cases(channels=6, side=10, kernel=3, stride=2, pad=1, filters=9),
       st.integers(1, 300))
def test_split_channel_blocks_equal_oracle_bytewise(case, block):
    # the patched budget splits blocks mid-layer, and cuts the channels
    # of one-channel blocks into tiles of whole output rows
    _run_conv_patched(*case, block)


# a one-channel block runs in tiles of budget // (max(filters, taps) x
# out_w) output rows, at least one
@pytest.mark.parametrize("layer,budget,tiles", [
    # 3 filters, 9 taps, 5x5 output: 45 floats per row; 90 gives tiles
    # of 2, 2 and a short last one of 1 row
    pytest.param(LayerSpec("short-last", "conv", 2, 5, 5, 3, 1, 1, 3), 90,
                 [2, 2, 1], id="short-last"),
    # stride 2, pad 1: 9x9 plane, 5x5 output; 4 filters, 9 taps, 45
    # floats per row; 135 gives tiles of 3 and 2 rows, the second
    # reading the padded plane from row 6
    pytest.param(LayerSpec("stride-2-pad-1", "conv", 3, 9, 9, 3, 2, 1, 4),
                 135, [3, 2], id="stride-2-pad-1"),
    # 12 filters over an 8-wide output: one row's registers, 12 x 8 =
    # 96 floats, exceed the budget of 60, so every tile is one row
    pytest.param(LayerSpec("one-row", "conv", 2, 6, 8, 3, 1, 1, 12), 60,
                 [1] * 6, id="one-row"),
])
def test_pixel_tiles_equal_oracle_bytewise(layer, budget, tiles):
    bank = random_sparse_filters(layer, 0.7, 5)
    features = np.random.default_rng(6).uniform(
        -2.0, 2.0, (layer.channels, layer.height, layer.width)
    ).astype(np.float32)
    _run_conv_patched(layer, bank, features, budget)
    # one window copy per tile and channel, tile by tile
    with mock.patch.object(engine, "_BLOCK_FLOATS", budget), \
            mock.patch.object(engine, "_copy_windows",
                              wraps=engine._copy_windows) as copy:
        run_conv(_whole_stack(bank), features, layer)
    tile_rows = [call.args[3].shape[-2] for call in copy.call_args_list]
    assert tile_rows == [n for n in tiles for _ in range(layer.channels)]


@pytest.mark.parametrize("density", [0.1, 0.7], ids=["d0.1", "d0.7"])
@pytest.mark.parametrize("block", [500, 1 << 18],
                         ids=["one-channel", "blocks"])
def test_summed_filter_registers_equal_scalar_reference(density, block):
    # at d0.1 the channels hold filters with no product, whose registers
    # flush the spare +0.0 row, with one, held at rank 0, and with
    # several; at d0.7 only filters with several. A budget of 500 gives
    # one-channel blocks: 24 filters x 7x9 windows exceed it, and tiles
    # of 500 // (24 x 9) = 2 output rows, the last one short
    layer = LayerSpec("sel", "conv", 3, 7, 9, 3, 1, 1, 24)
    bank = random_sparse_filters(layer, density, 31)
    products = np.count_nonzero(bank.reshape(24, 3, 9), axis=2)
    kinds = {min(n, 2) for n in products.ravel().tolist()}
    assert kinds == ({0, 1, 2} if density < 0.5 else {2})
    features = np.random.default_rng(32).uniform(
        -2.0, 2.0, (3, 7, 9)).astype(np.float32)
    actual = _run_conv_patched(layer, bank, features, block)
    stepped = EngineContext(layer, _whole_stack(bank), features).run()
    assert actual.tobytes() == stepped.tobytes()


@pytest.mark.parametrize("block", [1, 1 << 18], ids=["one-channel", "blocks"])
def test_lone_negative_zero_product(block):
    # filter 0 takes one product per channel, a positive weight on input
    # samples that are -0.0 in channel 1 and in half of channel 0; filter
    # 1 takes two, filters 2 and 3 none. A lone product is its rank-0
    # register, -0.0 where its sample is, and its flush must leave the
    # output free of -0.0
    layer = LayerSpec("nz1", "conv", 2, 6, 6, 3, 1, 1, 4)
    bank = np.zeros((4, 2, 3, 3), np.float32)
    bank[0, :, 1, 1] = 0.5
    bank[1, :, 0, 0] = bank[1, :, 2, 2] = -1.5
    features = np.full((2, 6, 6), -0.0, np.float32)
    features[0, :3] = np.random.default_rng(33).uniform(-2.0, 2.0, (3, 6))
    actual = _run_conv_patched(layer, bank, features, block)
    stepped = EngineContext(layer, _whole_stack(bank), features).run()
    assert actual.tobytes() == stepped.tobytes()
    assert not (np.signbit(actual) & (actual == 0)).any()


@pytest.mark.parametrize("layer", [
    # a kernel as large as the plane: one window, so every channel fits
    # one block. At d1.0 a (channel, filter) register takes 169 products,
    # more than int8 counts, or 256, more than uint8 counts
    LayerSpec("k13", "conv", 4, 13, 13, 13, 1, 0, 8),
    LayerSpec("k16", "conv", 4, 16, 16, 16, 1, 0, 4),
], ids=lambda layer: layer.name)
@pytest.mark.parametrize("density,empty", [
    (1.0, []),
    (1.0, [1]),
    (1.0, [2, 3]),
    (0.0, []),
], ids=["d1.0", "empty-channel", "empty-block", "d0"])
def test_wide_kernel_blocks_equal_oracle_and_scalar_reference(layer, density,
                                                             empty):
    # the shipped budget puts every channel in one block; two taps' worth
    # of window rows gives two-channel blocks, the first holding channels
    # 0 and 1 (so channel 1 empty) and the second channels 2 and 3
    taps = layer.kernel ** 2
    assert engine._BLOCK_FLOATS // max(layer.filters, taps) >= layer.channels
    bank = random_sparse_filters(layer, density, 41)
    bank[:, empty] = 0.0
    assert np.count_nonzero(bank) == (
        density * taps * layer.filters * (layer.channels - len(empty)))
    features = np.random.default_rng(42).uniform(
        -2.0, 2.0, (layer.channels, layer.height, layer.width)
    ).astype(np.float32)
    for block in (engine._BLOCK_FLOATS, 2 * taps):
        _run_conv_patched(layer, bank, features, block)
    actual, _ = run_conv(_whole_stack(bank), features, layer)
    stepped = EngineContext(layer, _whole_stack(bank), features).run()
    assert actual.tobytes() == stepped.tobytes()


@pytest.mark.parametrize("cells,narrow", [
    (0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
    (32768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
])
def test_index_type_is_the_narrowest_signed_type(cells, narrow):
    assert engine._index_type(cells) == narrow


@pytest.mark.parametrize("layer,narrow", [
    # channels x taps x filters cells: 126, 3456 and 294912
    pytest.param(LayerSpec("int8", "conv", 2, 6, 6, 3, 1, 1, 7), np.int8,
                 id="int8"),
    pytest.param(LayerSpec("int16", "conv", 16, 9, 9, 3, 1, 1, 24),
                 np.int16, id="int16"),
    pytest.param(LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 64),
                 np.int32, id="int32"),
])
def test_intp_set_up_equals_narrow_set_up(layer, narrow):
    # the set-up in intp, as a layer of 2**31 cells or more would take it,
    # gives the bytes and counters of the narrow set-up
    cells = layer.channels * layer.kernel ** 2 * layer.filters
    assert engine._index_type(cells) == narrow
    bank = random_sparse_filters(layer, 0.5, 51)
    features = np.random.default_rng(52).uniform(
        -2.0, 2.0, (layer.channels, layer.height, layer.width)
    ).astype(np.float32)
    stream = _whole_stack(bank)
    expected, expected_counters = run_conv(stream, features, layer)
    with mock.patch.object(engine, "_index_type",
                           return_value=np.dtype(np.intp)) as pick:
        actual, counters = run_conv(stream, features, layer)
    pick.assert_called_once_with(cells)
    assert actual.tobytes() == expected.tobytes()
    assert vars(counters) == vars(expected_counters)


def test_zero_filter_stream_runs():
    # no filter: the set-up type still holds the 3380 positions of 20
    # channels under a 13x13 kernel, which int8 does not
    layer = LayerSpec("none", "conv", 20, 6, 6, 13, 1, 4, 1)
    stream = encode_csf(np.zeros((0, 20, 13, 13), np.float32), "conv")
    out, counters = run_conv(stream, np.ones((20, 6, 6), np.float32), layer)
    assert out.shape == (0, 2, 2)
    assert vars(counters) == vars(stack_trace(0, 3380, 20, 4))


@settings(max_examples=60, deadline=None)
@given(conv_cases(channels=3, side=6, kernel=3, stride=2, pad=1, filters=6))
def test_instruction_walk_equals_run_conv(case):
    # the scalar walk tallies every load as it happens; run_conv computes
    # its counters from the stream's nonzero count
    layer, bank, features = case
    stream = _whole_stack(bank)
    ctx = EngineContext(layer, stream, features)
    stepped = ctx.run()
    actual, counters = run_conv(stream, features, layer)
    assert stepped.tobytes() == actual.tobytes()
    assert vars(ctx.counters) == vars(counters)


@settings(max_examples=150, deadline=None)
@given(layer_cases())
def test_counters_are_stack_trace_summed_over_stacks(case):
    # priced from the bank alone, never from an encoded stream: an fc
    # layer is one window whose every input element is its own channel
    layer, bank, features, batch = case
    positions = math.prod(bank.shape[1:])
    channels = layer.channels if layer.kind == "conv" else positions
    windows = math.prod(output_shape(layer))
    expected = TraceCounters()
    for start in range(0, bank.shape[0], batch):
        nnz = int(np.count_nonzero(bank[start:start + batch]))
        expected += stack_trace(nnz, positions, channels, windows)
    _, counters = run_layer_batched(bank, features, layer, batch)
    assert vars(counters) == vars(expected)
