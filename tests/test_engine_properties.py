"""Property tests: the engine reproduces the dense oracles bytewise.

Extents stay small so the suite runs in seconds. Input features are any
float32 in [-2, 2], signed zeros and subnormals included; densities are
anywhere in [0, 1]; zero weights are optionally -0.0, as a bank file may
hold them.

- batched engine == oracle: conv or fc, 1 to 4 channels, planes of 1 to
  12 rows and columns, kernel 1 to 5 (at most the padded plane), stride
  1 to 3, pad 0 to 2, 0 to 12 filters, batches of 1 to 12 filters;
- `run_conv` with its channel-block budget patched to 1 to 300 floats ==
  oracle, so blocks split mid-layer and some hold no entries: 1 to 6
  channels, planes of 1 to 10, kernel 1 to 3, stride 1 to 2, pad 0 to 1,
  1 to 9 filters;
- `EngineContext.run` == `run_conv`, output bytes and counters: 1 to 3
  channels, planes of 1 to 6, kernel 1 to 3, stride 1 to 2, pad 0 to 1,
  1 to 6 filters;
- feature division tiled == untiled, output bytes and summed counters:
  1 to 3 channels, planes of 1 to 12, kernel 1 to 3, stride 1 to 3, pad 0
  to 2, 1 to 8 filters, square tiles of 1 to 6 outputs, batches of 1 to 8;
- `stack_trace` summed over the stacks, from the bank's nonzeros alone ==
  `run_layer_batched`'s counters, within the first property's bounds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (EngineContext, LayerSpec, TraceCounters, dense_conv,
                    dense_fc, division_layer, encode_csf, extract_division,
                    output_shape, plan_feature_division,
                    random_sparse_filters, run_conv, run_layer_batched,
                    stack_filters, stack_trace, stitch_outputs)
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


@settings(max_examples=150, deadline=None)
@given(conv_cases(channels=6, side=10, kernel=3, stride=2, pad=1, filters=9),
       st.integers(1, 300))
def test_split_channel_blocks_equal_oracle_bytewise(case, budget):
    layer, bank, features = case
    with mock.patch.object(engine, "_BLOCK_FLOATS", budget):
        actual, _ = run_conv(_whole_stack(bank), features, layer)
    assert actual.tobytes() == dense_conv(features, bank, layer).tobytes()


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


@settings(max_examples=80, deadline=None)
@given(conv_cases(channels=3, side=12, kernel=3, stride=3, pad=2, filters=8),
       st.integers(1, 6), st.integers(1, 8))
def test_feature_division_equals_whole_layer(case, tile, batch):
    layer, bank, features = case
    plan = plan_feature_division(layer, tile * tile * layer.filters, tile=tile)
    whole, whole_counters = run_layer_batched(bank, features, layer, batch)
    tiles = [[None] * plan.grid_w for _ in range(plan.grid_h)]
    tiled_counters = TraceCounters()
    for ty in range(plan.grid_h):
        for tx in range(plan.grid_w):
            window = extract_division(features, plan, ty, tx, layer)
            out, counters = run_layer_batched(
                bank, window, division_layer(layer, plan, ty, tx), batch)
            tiles[ty][tx] = out
            tiled_counters += counters
    assert stitch_outputs(tiles, plan).tobytes() == whole.tobytes()
    assert vars(tiled_counters) == vars(whole_counters)


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
