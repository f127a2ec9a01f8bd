"""Property test: the batched engine reproduces the dense oracles bytewise.

Extents stay small so the suite runs in seconds: 1 to 4 channels, planes
of 1 to 12 rows and columns, kernel extent 1 to 5 (at most the padded
plane), stride 1 to 3, pad 0 to 2, 0 to 12 filters, density anywhere in
[0, 1] and batches of 1 to 12 filters. Fully connected layers draw the
same channel and plane extents. Input features are any float32 in
[-2, 2], signed zeros and subnormals included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (LayerSpec, dense_conv, dense_fc, random_sparse_filters,
                    run_layer_batched)

_FEATURES = st.floats(-2.0, 2.0, width=32)


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
    # LayerSpec needs at least one filter; an empty bank is sliced below
    layer = LayerSpec("p", kind, channels, height, width, kernel, stride, pad,
                      max(filters, 1))
    bank = random_sparse_filters(layer, draw(st.floats(0.0, 1.0)),
                                 draw(st.integers(0, 2**32 - 1)))[:filters]
    if draw(st.booleans()):
        # bank files may hold -0.0 where a generated bank holds +0.0
        bank[bank == 0] = -0.0
    features = draw(arrays(np.float32, (channels, height, width),
                           elements=_FEATURES))
    return layer, bank, features, draw(st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(layer_cases())
def test_batched_engine_equals_oracle_bytewise(case):
    layer, bank, features, batch = case
    oracle = dense_conv if layer.kind == "conv" else dense_fc
    expected = oracle(features, bank, layer)
    actual, _ = run_layer_batched(bank, features, layer, batch)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
