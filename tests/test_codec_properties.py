"""Property tests for the stream codec over generated stacks and bytes.

Extents stay small so the suite runs in seconds: up to 4 channels, kernel
extent up to 3, fc inputs up to 3 axes of up to 4 elements, and 0 to 16
stacked filters.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (CsfFormatError, decode_csf, deserialize_csf, encode_csf,
                    serialize_csf)

# a weight is zero half the time, otherwise any finite float32
_WEIGHTS = st.one_of(st.just(0.0),
                     st.floats(width=32, allow_nan=False, allow_infinity=False))
_FILTERS = st.integers(0, 16)


@st.composite
def stacks(draw):
    """(profile, stacked block) with a filter axis innermost."""
    if draw(st.booleans()):
        c, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        shape, profile = (c, k, k, draw(_FILTERS)), "conv"
    else:
        spatial = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        shape, profile = (*spatial, draw(_FILTERS)), "fc"
    return profile, draw(arrays(np.float32, shape, elements=_WEIGHTS))


@st.composite
def streams(draw):
    profile, stacked = draw(stacks())
    return serialize_csf(encode_csf(stacked, profile,
                                    quantized=draw(st.booleans())))


def reference_encode(stacked):
    """The stream's arrays by the format's definition, one weight at a time."""
    m = stacked.shape[-1]
    counts, rel, weights, indices = [], [], [], []
    for row in stacked.reshape(math.prod(stacked.shape[:-1]), m):
        prev = 0
        nonzero = [j for j in range(m) if row[j] != 0]
        counts.append(len(nonzero))
        for j in nonzero:
            rel.append(j - prev)
            weights.append(row[j])
            indices.append(j)
            prev = j
    return counts, rel, np.array(weights, np.float32), indices


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_encode_matches_scalar_reference(case):
    profile, stacked = case
    stream = encode_csf(stacked, profile)
    counts, rel, weights, indices = reference_encode(stacked)
    assert stream.counts.tolist() == counts
    assert stream.rel.tolist() == rel
    assert stream.weights.tobytes() == weights.tobytes()
    assert stream.indices.tolist() == indices


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_bytes_roundtrip_is_identity(case):
    profile, stacked = case
    stream = encode_csf(stacked, profile)
    blob = serialize_csf(stream)
    back = deserialize_csf(blob)
    assert back == stream
    assert serialize_csf(back) == blob
    decoded = decode_csf(back)
    # by value: a -0.0 weight is dropped like any zero and decodes as +0.0
    assert np.array_equal(decoded, stacked.reshape(decoded.shape))
    assert back.total_nnz == np.count_nonzero(stacked)


@settings(max_examples=150, deadline=None)
@given(streams(), st.data())
def test_truncated_bytes_raise_format_error(blob, data):
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        deserialize_csf(blob[:cut])
    except CsfFormatError:
        return
    raise AssertionError(f"{cut}-byte prefix of {len(blob)} bytes parsed")


@settings(max_examples=300, deadline=None)
@given(streams(), st.data())
def test_flipped_bytes_raise_format_error_or_roundtrip(blob, data):
    bad = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(bad) - 1))
        bad[at] ^= data.draw(st.integers(1, 255))
    try:
        stream = deserialize_csf(bytes(bad))
    except CsfFormatError:
        return
    # whatever is accepted is a whole stream that writes the same bytes
    assert serialize_csf(stream) == bytes(bad)
    # and the block it decodes to encodes back to those bytes; a flipped
    # extent can declare a block of gigabytes, so only small ones decode
    if stream.filters * stream.position_count > 1 << 16:
        return
    block = decode_csf(stream)
    again = encode_csf(block, stream.profile, stream.quantized)
    assert serialize_csf(again) == bytes(bad)
