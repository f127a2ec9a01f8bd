"""Property tests for the stream codec over generated stacks and bytes.

Extents stay small so the suite runs in seconds: up to 4 channels, kernel
extent up to 3, fc inputs up to 3 axes of up to 4 elements, and 0 to 16
stacked filters.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csfsim import (CsfFormatError, CsfStream, decode_csf, deserialize_csf,
                    encode_csf, serialize_csf, stack_filters)

# a weight is zero half the time, otherwise any finite float32
_WEIGHTS = st.one_of(st.just(0.0),
                     st.floats(width=32, allow_nan=False, allow_infinity=False))
_FILTERS = st.integers(0, 16)
_NONZERO = st.floats(width=32, allow_nan=False,
                     allow_infinity=False).map(lambda w: w or 1.0)


@st.composite
def stacks(draw):
    """(profile, stacked block) with the filter axis first."""
    if draw(st.booleans()):
        c, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        shape, profile = (draw(_FILTERS), c, k, k), "conv"
    else:
        spatial = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        shape, profile = (draw(_FILTERS), *spatial), "fc"
    return profile, draw(arrays(np.float32, shape, elements=_WEIGHTS))


@st.composite
def streams(draw):
    profile, stacked = draw(stacks())
    return serialize_csf(encode_csf(stacked, profile,
                                    quantized=draw(st.booleans())))


def reference_encode(stacked):
    """The stream's arrays by the format's definition, one weight at a time."""
    m = stacked.shape[0]
    counts, rel, weights, indices = [], [], [], []
    for row in stacked.reshape(m, math.prod(stacked.shape[1:])).T:
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


@st.composite
def bank_stacks(draw):
    """(profile, bank, start, size): a stack of filters start:start + size
    of a (filters, ...spatial) bank that is sparse, all zero or dense."""
    filters = draw(st.integers(1, 16))
    if draw(st.booleans()):
        c, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        shape, profile = (filters, c, k, k), "conv"
    else:
        spatial = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        shape, profile = (filters, *spatial), "fc"
    fill = draw(st.sampled_from([_WEIGHTS, st.just(0.0), _NONZERO]))
    start = draw(st.integers(0, filters - 1))
    size = draw(st.integers(1, filters - start))
    return profile, draw(arrays(np.float32, shape, elements=fill)), start, size


@settings(max_examples=150, deadline=None)
@given(bank_stacks())
@example(("conv", np.ones((3, 2, 2, 2), np.float32), 1, 1))
@example(("fc", np.zeros((2, 3, 4), np.float32), 0, 1))
@example(("fc", np.ones((4, 5), np.float32), 0, 4))
def test_stack_view_encodes_as_its_contiguous_copy(case):
    # every other filter of a stack is a strided view of the bank; the
    # stream must not depend on that layout
    profile, bank, start, size = case
    view = stack_filters(bank, start, size)[::2]
    assert np.shares_memory(view, bank)
    assert (serialize_csf(encode_csf(view, profile))
            == serialize_csf(encode_csf(np.ascontiguousarray(view), profile)))


@st.composite
def delta_codes(draw):
    """(counts, rel) of well-formed positions, some empty: a first gap of
    0 or more, then gaps of 1 or more, wider than any 64-filter stack."""
    rows = draw(st.lists(st.lists(st.integers(1, 5000), max_size=6),
                         min_size=1, max_size=12))
    counts = [len(row) for row in rows]
    rel = [gap - (e == 0) for row in rows for e, gap in enumerate(row)]
    return counts, rel


@settings(max_examples=150, deadline=None)
@given(delta_codes())
def test_indices_are_running_sums_within_each_position(case):
    counts, rel = case
    stream = CsfStream("fc", 0xFFFF, len(counts), 1, counts, rel,
                       np.ones(len(rel), np.float32))
    ends = np.cumsum(counts)
    want = [int(i) for n, end in zip(counts, ends)
            for i in np.cumsum(rel[end - n:end], dtype=np.int64)]
    assert stream.indices.tolist() == want


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


@st.composite
def broken_streams(draw):
    """(filters, counts, rel, weights) of an fc stream with empty positions
    and one or two broken entries, each in the first, the last or any
    nonempty position: a zero gap after a position's first entry, a
    filter index past the stack, a NaN or infinite weight, or a +-0.0
    weight."""
    filters = draw(st.integers(1, 16))
    rows = draw(st.lists(st.sets(st.integers(0, filters - 1)),
                         min_size=2, max_size=12))
    empty, full = draw(st.permutations(range(len(rows))))[:2]
    rows[empty] = set()
    rows[full] = rows[full] or {draw(st.integers(0, filters - 1))}
    counts = [len(row) for row in rows]
    rel = [j - prev for row in rows
           for prev, j in zip([0] + sorted(row), sorted(row))]
    weights = [draw(_NONZERO) for _ in rel]
    # the entry ranges of the nonempty positions, in stream order
    ends = np.cumsum(counts)
    spans = [range(end - n, end) for n, end in zip(counts, ends) if n]
    firsts = {span.start for span in spans}
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(["first", "last", "any"]))
        span = {"first": spans[0], "last": spans[-1]}.get(
            where, range(ends[-1]))
        kind = draw(st.sampled_from(["gap", "index", "nonfinite", "zero"]))
        # a zero gap is a break only after a position's first entry
        eligible = [e for e in span if kind != "gap" or e not in firsts]
        assume(eligible)
        at = draw(st.sampled_from(eligible))
        if kind == "gap":
            rel[at] = 0
        elif kind == "index":
            rel[at] = filters + draw(st.integers(0, 3))
        else:
            weights[at] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf] if kind == "nonfinite"
                else [0.0, -0.0]))
    return filters, counts, rel, weights


def first_break(filters, counts, rel, weights):
    """The error message, entry by entry: the first rule, in the order
    the constructor checks them, that any entry breaks, and that rule's
    first offender in stream order."""
    entries = []  # (position, first in its position, rel, index, weight)
    at = 0
    for position, count in enumerate(counts):
        index = 0
        for e in range(count):
            index += rel[at]
            entries.append((position, e == 0, rel[at], index, weights[at]))
            at += 1
    rules = [
        (lambda first, r, i, w: r == 0 and not first,
         lambda i: "non-ascending filter index"),
        (lambda first, r, i, w: i >= filters,
         lambda i: f"filter index {i} outside stack of {filters}"),
        (lambda first, r, i, w: not math.isfinite(w),
         lambda i: "non-finite weight"),
        (lambda first, r, i, w: w == 0, lambda i: "zero weight"),
    ]
    for broken, what in rules:
        for position, *entry in entries:
            if broken(*entry):
                return f"{what(entry[2])} at position {position}"


@settings(max_examples=200, deadline=None)
@given(broken_streams())
def test_format_error_names_the_first_offender(case):
    filters, counts, rel, weights = case
    message = first_break(filters, counts, rel, weights)
    with pytest.raises(CsfFormatError) as err:
        CsfStream("fc", filters, len(counts), 1, np.array(counts),
                  np.array(rel), np.array(weights, np.float32))
    assert str(err.value) == message
