"""Compressed sparse filter streams: encode, decode, pack to bytes.

A stream covers a stack of filters processed together. For every weight
position (channel, kernel row, kernel column for convolution; one flat
index per input element for fully connected) it stores a count followed by
(relative index, weight) pairs for the nonzero weights among the stacked
filters at that position. Filter indices ascend within a position and are
delta coded: the first entry's relative index is its absolute filter index,
each later entry's is the gap from the previous nonzero filter. Zero weights
are never encoded. In memory a `CsfStream` holds the same stream as three
flat arrays: the counts, then every entry's relative index and weight.

Byte layout (little endian throughout):

    offset  size  field
    0       4     magic "CSF1"
    4       2     format version, currently 1
    6       1     profile: 0 = fc, 1 = conv
    7       1     weight dtype: 0 = float32, 1 = shift quantized float32
    8       4     filters stacked in the stream (m)
    12      4     channels
    16      4     kernel extent (1 for fc)
    20      4     position count
    24      ...   per position: u16 count, then count x (u16 rel, f32 weight)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CSF1"
VERSION = 1
HEADER_LEN = 24
_PROFILES = {"fc": 0, "conv": 1}
_PROFILE_NAMES = {code: name for name, code in _PROFILES.items()}
# one packed (relative index, weight) pair as it sits in the byte form
_ENTRY = np.dtype([("rel", "<u2"), ("weight", "<f4")])


class CsfFormatError(ValueError):
    """Malformed stream bytes or inconsistent stream structure."""


class CsfRangeError(ValueError):
    """A count or index exceeds what the format's fields can carry."""


def _u16_array(values, what: str) -> np.ndarray:
    """A fresh 1-D uint16 copy of integer values that fit the u16 field."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise CsfFormatError(f"{what} must be a 1-D integer array")
    if arr.size and (arr.min() < 0 or arr.max() > 0xFFFF):
        raise CsfRangeError(f"{what} value outside the u16 field")
    return arr.astype(np.uint16)


def _count_field_mask(offsets: np.ndarray) -> np.ndarray:
    """Marks the bytes of each position's u16 count in the stream body."""
    mask = np.zeros(2 * (offsets.size - 1) + 6 * int(offsets[-1]), bool)
    starts = 2 * np.arange(offsets.size - 1) + 6 * offsets[:-1]
    mask[starts] = mask[starts + 1] = True
    return mask


@dataclass(frozen=True, eq=False)
class CsfStream:
    """A stack of filters encoded position by position, as flat arrays.

    `counts` holds one entry count per position; `rel` and `weights` hold
    every entry in stream order. Conv streams have channels * kernel**2
    positions (channel-major, kernel row, kernel column); fc streams carry
    the flattened input length in channels, with kernel 1. Construction
    validates everything once and derives `offsets` (position p's entries
    are offsets[p]:offsets[p + 1]) and absolute filter `indices`, so every
    stream that exists can be serialized, decoded and run. The arrays are
    read-only copies.
    """

    profile: str
    filters: int
    channels: int
    kernel: int
    counts: np.ndarray = field(repr=False)
    rel: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    quantized: bool = False
    offsets: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise CsfFormatError(f"unknown profile {self.profile!r}")
        if not all(0 <= v <= 0xFFFFFFFF
                   for v in (self.filters, self.channels, self.kernel)):
            raise CsfRangeError("filters, channels or kernel outside u32")
        counts = _u16_array(self.counts, "counts")
        rel = _u16_array(self.rel, "rel")
        weights = np.array(self.weights, dtype=np.float32)
        expected = self.channels * (
            self.kernel ** 2 if self.profile == "conv" else 1)
        if counts.size != expected:
            raise CsfFormatError(f"position count {counts.size} does not "
                                 f"match shape (expected {expected})")
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        if weights.shape != rel.shape or rel.size != offsets[-1]:
            raise CsfFormatError(
                f"counts promise {offsets[-1]} entries but rel holds "
                f"{rel.size} and weights {weights.shape}")
        rows = np.repeat(np.arange(counts.size), counts)
        later = np.flatnonzero(rows[1:] == rows[:-1]) + 1
        bad = later[rel[later] == 0]
        if bad.size:
            raise CsfFormatError(
                f"non-ascending filter index at position {rows[bad[0]]}")
        # undo the delta coding: a running sum restarted at each position
        running = np.concatenate(([0], np.cumsum(rel, dtype=np.int64)))
        indices = running[1:] - running[offsets[rows]]
        bad = np.flatnonzero(indices >= self.filters)
        if bad.size:
            raise CsfFormatError(f"filter index {indices[bad[0]]} outside "
                                 f"stack of {self.filters} at position "
                                 f"{rows[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(weights))
        if bad.size:
            raise CsfFormatError(f"non-finite weight at position {rows[bad[0]]}")
        for name, arr in (("counts", counts), ("rel", rel),
                          ("weights", weights), ("offsets", offsets),
                          ("indices", indices)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def position_count(self) -> int:
        return self.counts.size

    @property
    def total_nnz(self) -> int:
        return self.rel.size

    def __eq__(self, other):
        if not isinstance(other, CsfStream):
            return NotImplemented
        # the header first, then the arrays by value
        return all(np.array_equal(getattr(self, n), getattr(other, n))
                   for n in ("profile", "filters", "channels", "kernel",
                             "quantized", "counts", "rel", "weights"))


def stack_filters(bank: np.ndarray, start: int, size: int) -> np.ndarray:
    """Slice `size` filters from a bank and move the filter axis innermost.

    Input bank is (filters, ...spatial); result is (...spatial, size), laid
    out contiguously so a position index walks the spatial axes in C order.
    """
    if start < 0 or size < 1 or start + size > bank.shape[0]:
        raise ValueError(
            f"stack [{start}, {start + size}) outside bank of {bank.shape[0]}"
        )
    return np.ascontiguousarray(np.moveaxis(bank[start:start + size], 0, -1))


def encode_csf(stacked: np.ndarray, profile: str, quantized: bool = False) -> CsfStream:
    """Encode a stacked filter block (...spatial, m) into a stream.

    Conv stacks must be (channels, kernel, kernel, m); fc stacks may carry
    any spatial shape, which is flattened to one position per input element.
    Non-finite weights raise CsfFormatError.
    """
    if profile not in _PROFILES:
        raise CsfFormatError(f"unknown profile {profile!r}")
    arr = np.asarray(stacked, dtype=np.float32)
    if arr.ndim < 2:
        raise CsfFormatError("stacked block needs spatial axes plus a filter axis")
    m = arr.shape[-1]
    # named, not -1: numpy cannot infer -1 for an empty filter axis
    positions = math.prod(arr.shape[:-1])
    if profile == "conv":
        if arr.ndim != 4 or arr.shape[1] != arr.shape[2]:
            raise CsfFormatError(
                f"conv stack must be (channels, kernel, kernel, m), got {arr.shape}"
            )
        channels, kernel = arr.shape[0], arr.shape[1]
    else:
        channels, kernel = positions, 1
    if m > 0xFFFF:
        raise CsfRangeError(f"{m} stacked filters exceeds the u16 index field")
    flat = arr.reshape(positions, m)
    # flat indices of the nonzeros in (position, filter) order, as
    # np.nonzero(flat) lists them. The bool mask dies with the call and
    # `nonzero` once split, so encoding holds no more memory than
    # np.nonzero's two index arrays would
    nonzero = np.flatnonzero(flat != 0)
    weights = flat.reshape(-1)[nonzero]
    pos, idx = np.divmod(nonzero, m)
    del nonzero
    rel = np.diff(idx, prepend=0)
    first = np.diff(pos, prepend=-1) != 0
    rel[first] = idx[first]
    counts = np.bincount(pos, minlength=flat.shape[0])
    return CsfStream(profile, m, channels, kernel, counts, rel, weights,
                     quantized)


def decode_csf(stream: CsfStream) -> np.ndarray:
    """Expand a stream back to a dense stacked block (...spatial, m)."""
    if stream.profile == "conv":
        shape = (stream.channels, stream.kernel, stream.kernel, stream.filters)
    else:
        shape = (stream.channels, stream.filters)
    out = np.zeros((stream.position_count, stream.filters), np.float32)
    rows = np.repeat(np.arange(stream.position_count), stream.counts)
    out[rows, stream.indices] = stream.weights
    return out.reshape(shape)


def serialize_csf(stream: CsfStream) -> bytes:
    """Pack a stream into its byte representation."""
    header = MAGIC + struct.pack(
        "<HBBIIII", VERSION, _PROFILES[stream.profile],
        1 if stream.quantized else 0, stream.filters, stream.channels,
        stream.kernel, stream.position_count)
    is_count = _count_field_mask(stream.offsets)
    entries = np.empty(stream.total_nnz, _ENTRY)
    entries["rel"] = stream.rel
    entries["weight"] = stream.weights
    body = np.empty(is_count.size, np.uint8)
    body[is_count] = stream.counts.astype("<u2").view(np.uint8)
    body[~is_count] = entries.view(np.uint8)
    return header + body.tobytes()


def deserialize_csf(data: bytes) -> CsfStream:
    """Parse stream bytes; raises CsfFormatError on any malformation."""
    if len(data) < HEADER_LEN:
        raise CsfFormatError(f"{len(data)} bytes is shorter than the header")
    if data[:4] != MAGIC:
        raise CsfFormatError(f"bad magic {data[:4]!r}")
    version, profile_code, dtype_code = struct.unpack_from("<HBB", data, 4)
    if version != VERSION:
        raise CsfFormatError(f"unsupported version {version}")
    if profile_code not in _PROFILE_NAMES:
        raise CsfFormatError(f"unknown profile code {profile_code}")
    if dtype_code not in (0, 1):
        raise CsfFormatError(f"unknown dtype code {dtype_code}")
    filters, channels, kernel, position_count = struct.unpack_from("<IIII", data, 8)
    # walk the count fields only, to find truncation and trailing bytes;
    # the stream's constructor checks the rest, header shape included
    counts = []
    at = HEADER_LEN
    for p in range(position_count):
        if at + 2 > len(data):
            raise CsfFormatError(f"truncated at position {p} count field")
        counts.append(data[at] | data[at + 1] << 8)
        at += 2 + 6 * counts[-1]
        if at > len(data):
            raise CsfFormatError(f"truncated in position {p} entries")
    if at != len(data):
        raise CsfFormatError(f"{len(data) - at} trailing bytes after stream")
    counts = np.array(counts, np.uint16)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    body = np.frombuffer(data, np.uint8, offset=HEADER_LEN)
    entries = body[~_count_field_mask(offsets)].view(_ENTRY)
    return CsfStream(_PROFILE_NAMES[profile_code], filters, channels, kernel,
                     counts, entries["rel"], entries["weight"],
                     quantized=dtype_code == 1)


def quantize_shift(bank: np.ndarray, exp_min: int, exp_max: int) -> np.ndarray:
    """Round nonzero weights to signed powers of two for shift arithmetic.

    Each nonzero w becomes sign(w) * 2**e with e = ceil(log2|w| - 0.5),
    which picks the nearest exponent and resolves exact midpoints toward
    the smaller one; e is clamped to [exp_min, exp_max]. Zeros stay zero,
    so sparsity is preserved exactly. The range must lie within
    [-149, 127], the exponents of float32's smallest subnormal and largest
    power of two, so every result is a finite nonzero float32. NaN and
    infinite weights are rejected rather than clamped.
    """
    if exp_min > exp_max:
        raise ValueError(f"exponent range [{exp_min}, {exp_max}] is empty")
    if exp_min < -149 or exp_max > 127:
        raise ValueError(f"exponent range [{exp_min}, {exp_max}] leaves "
                         f"float32's [-149, 127]")
    arr = np.asarray(bank, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise ValueError("bank contains non-finite weights")
    out = np.zeros_like(arr)
    nz = arr != 0
    mags = np.abs(arr[nz]).astype(np.float64)
    exps = np.ceil(np.log2(mags) - 0.5)
    exps = np.clip(exps, exp_min, exp_max)
    out[nz] = np.sign(arr[nz]) * np.exp2(exps).astype(np.float32)
    return out
