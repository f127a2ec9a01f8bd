"""Property tests: the engine reproduces the dense oracles bytewise.

Extents stay small so the suite runs in seconds. Input features are any
float32 in [-2, 2], signed zeros and subnormals included; densities are
anywhere in [0, 1]; zero weights are optionally -0.0, as a bank file may
hold them.

- batched engine == oracle: conv or fc, 1 to 4 channels, planes of 1 to
  12 rows and columns, kernel 1 to 5 (at most the padded plane), stride
  1 to 3, pad 0 to 2, 0 to 12 filters, batches of 1 to 12 filters;
- `run_conv` with its channel-block budget and its pixel-tile register
  bound each patched to 1 to 300 floats == oracle, with the unpatched
  run's counters, so blocks split mid-layer, some hold no entries, and
  pixel tiles end mid-row or run short: 1 to 6 channels, planes of 1 to
  10, kernel 1 to 3, stride 1 to 2, pad 0 to 1, 1 to 9 filters; pinned
  examples add a tile ending mid-row, a short last tile, and stride 2
  with pad 1;
- `EngineContext.run` == `run_conv`, output bytes and counters: 1 to 3
  channels, planes of 1 to 6, kernel 1 to 3, stride 1 to 2, pad 0 to 1,
  1 to 6 filters;
- `stack_trace` summed over the stacks, from the bank's nonzeros alone ==
  `run_layer_batched`'s counters, within the first property's bounds.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (EngineContext, LayerSpec, TraceCounters, dense_conv,
                    dense_fc, encode_csf, output_shape, random_sparse_filters,
                    run_conv, run_layer_batched, stack_filters, stack_trace)
from csfsim import engine

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


def _run_conv_patched(layer, bank, features, block, registers):
    """run_conv's output and counters under patched budgets, checked
    against the oracle and the unpatched run's counters."""
    stream = _whole_stack(bank)
    _, expected_counters = run_conv(stream, features, layer)
    with mock.patch.multiple(engine, _BLOCK_FLOATS=block,
                             _REGISTER_FLOATS=registers):
        actual, counters = run_conv(stream, features, layer)
    assert actual.tobytes() == dense_conv(features, bank, layer).tobytes()
    assert vars(counters) == vars(expected_counters)


@settings(max_examples=150, deadline=None)
@given(conv_cases(channels=6, side=10, kernel=3, stride=2, pad=1, filters=9),
       st.integers(1, 300), st.integers(1, 300))
def test_split_channel_blocks_equal_oracle_bytewise(case, block, registers):
    # both budgets patched: blocks split mid-layer and pixel tiles cut
    # channels
    _run_conv_patched(*case, block, registers)


# tiles are ceil(windows / ceil(filters * windows / registers)) pixels
@pytest.mark.parametrize("layer,registers", [
    # 2 filters x 5x7 windows = 70 registers over 35: tiles of 18 and 17
    # pixels, the second starting mid-row, at row 2, column 4
    (LayerSpec("mid-row", "conv", 2, 5, 7, 3, 1, 1, 2), 35),
    # 3 filters x 5x5 windows = 75 registers over 20: tiles of 7, 7, 7
    # and a short last one of 4
    (LayerSpec("short-last", "conv", 2, 5, 5, 3, 1, 1, 3), 20),
    # stride 2, pad 1: 9x9 plane, 5x5 windows; 4 filters x 25 windows =
    # 100 registers over 30: tiles of 7, 7, 7 and 4
    (LayerSpec("stride-2-pad-1", "conv", 3, 9, 9, 3, 2, 1, 4), 30),
], ids=lambda v: getattr(v, "name", str(v)))
@pytest.mark.parametrize("block", [1, 1 << 18])
def test_pixel_tiles_equal_oracle_bytewise(layer, registers, block):
    # block 1 puts one channel in each block, as on a large plane
    bank = random_sparse_filters(layer, 0.7, 5)
    features = np.random.default_rng(6).uniform(
        -2.0, 2.0, (layer.channels, layer.height, layer.width)
    ).astype(np.float32)
    _run_conv_patched(layer, bank, features, block, registers)


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
