"""Compressed sparse filter streams: encode, decode, pack to bytes.

A stream covers a stack of filters processed together. For every weight
position (channel, kernel row, kernel column for convolution; one flat
index per input element for fully connected) it stores a count followed by
(relative index, weight) pairs for the nonzero weights among the stacked
filters at that position. Filter indices ascend within a position and are
delta coded: the first entry's relative index is its absolute filter index,
each later entry's is the gap from the previous nonzero filter. Zero weights
are never encoded, and a stream that stores one is malformed. In memory a
`CsfStream` holds the same stream as three flat arrays: the counts, then
every entry's relative index and weight. A stack of filters is held as
the bank holds it, filter first: (filters, channels, k, k) for conv.

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

Every position's record is 2 + 6 x count bytes, so each count field sits
at an even offset and the body is a run of little-endian u16 words: a
count word, then three words per entry.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CSF1"
VERSION = 1
# magic, version, profile, dtype, filters, channels, kernel, position count
_HEADER = struct.Struct("<4sHBBIIII")
HEADER_LEN = _HEADER.size
_PROFILES = {"fc": 0, "conv": 1}
_PROFILE_NAMES = {code: name for name, code in _PROFILES.items()}
# one packed (relative index, weight) pair as it sits in the byte form
_ENTRY = np.dtype([("rel", "<u2"), ("weight", "<f4")])
# weights quantize_shift rounds per chunk: its scratch is a mask and a
# few float64 arrays of at most this length (0.5 MB each)
_QUANTIZE_CHUNK = 1 << 16


class CsfFormatError(ValueError):
    """Malformed stream bytes or structure, or a value a field cannot hold."""


def _u16_array(values, what: str) -> np.ndarray:
    """A fresh 1-D uint16 copy of integer values that fit the u16 field."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise CsfFormatError(f"{what} must be a 1-D integer array")
    if arr.size and (arr.min() < 0 or arr.max() > 0xFFFF):
        raise CsfFormatError(f"{what} value outside the u16 field")
    return arr.astype(np.uint16)


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
            raise CsfFormatError("filters, channels or kernel outside u32")
        if self.profile == "fc" and self.kernel != 1:
            raise CsfFormatError(f"fc stream kernel {self.kernel} is not 1")
        counts = _u16_array(self.counts, "counts")
        rel = _u16_array(self.rel, "rel")
        weights = np.array(self.weights, dtype=np.float32)
        expected = self.channels * self.kernel ** 2
        if counts.size != expected:
            raise CsfFormatError(f"position count {counts.size} does not "
                                 f"match shape (expected {expected})")
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        if weights.shape != rel.shape or rel.size != offsets[-1]:
            raise CsfFormatError(
                f"counts promise {offsets[-1]} entries but rel holds "
                f"{rel.size} and weights {weights.shape}")
        # undo the delta coding in one running sum, with no per-entry
        # position array: each nonempty position's first entry first takes
        # off the previous nonempty position's last index, the sum of that
        # position's gaps
        starts = offsets[:-1][counts > 0]
        indices = rel.astype(np.int64)
        indices[starts[1:]] -= np.add.reduceat(indices, starts)[:-1]
        np.cumsum(indices, out=indices)
        # a zero gap is legal only as a position's first entry
        misplaced = rel == 0
        misplaced[starts] = False
        outside = f"filter index {{}} outside stack of {self.filters}"
        for broken, what in ((misplaced, "non-ascending filter index"),
                             (indices >= self.filters, outside),
                             (~np.isfinite(weights), "non-finite weight"),
                             (weights == 0, "zero weight")):
            # one pass per rule; only a broken one seeks its first entry
            if broken.any():
                at = broken.argmax()
                raise CsfFormatError(
                    f"{what.format(indices[at])} at position "
                    f"{offsets.searchsorted(at, 'right') - 1}")
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
    """Slice `size` filters from a (filters, ...spatial) bank, as a view."""
    if start < 0 or size < 1 or start + size > bank.shape[0]:
        raise ValueError(
            f"stack [{start}, {start + size}) outside bank of {bank.shape[0]}"
        )
    return bank[start:start + size]


def encode_csf(stacked: np.ndarray, profile: str, quantized: bool = False) -> CsfStream:
    """Encode a stacked filter block (m, ...spatial) into a stream.

    Conv stacks must be (m, channels, kernel, kernel); fc stacks may carry
    any spatial shape, which is flattened to one position per input element.
    Non-finite weights raise CsfFormatError, as does a stack whose counts
    or relative indices do not fit their u16 fields.
    """
    arr = np.asarray(stacked, dtype=np.float32)
    if arr.ndim < 2:
        raise CsfFormatError("stacked block needs spatial axes plus a filter axis")
    m = arr.shape[0]
    # named, not -1: numpy cannot infer -1 for an empty filter axis
    positions = math.prod(arr.shape[1:])
    if profile == "conv":
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise CsfFormatError(
                f"conv stack must be (m, channels, kernel, kernel), got {arr.shape}"
            )
        channels, kernel = arr.shape[1], arr.shape[2]
    else:
        channels, kernel = positions, 1
    flat = arr.reshape(m, positions)
    # flat indices p * m + f of the nonzeros, in the stream's (position,
    # filter) order: the floats are compared in the bank's own layout and
    # flatnonzero transposes the mask as bools, cheaper than comparing
    # strided floats
    idx = np.flatnonzero((flat != 0).T)
    # position p's entries are offsets[p]:offsets[p + 1]
    offsets = np.searchsorted(idx, np.arange(positions + 1) * m)
    counts = np.diff(offsets)
    # each entry's position, then its filter index in place
    pos = np.repeat(np.arange(positions), counts)
    idx -= pos * m
    # the weights from the (m, positions) block, which for a contiguous
    # stack is the bank's own slice, not a copy
    pos += idx * positions
    weights = np.take(flat.ravel(), pos)
    del pos
    rel = np.diff(idx, prepend=0)
    # each nonempty position's first entry carries its index itself
    starts = offsets[:-1][counts > 0]
    rel[starts] = idx[starts]
    del idx
    return CsfStream(profile, m, channels, kernel, counts, rel, weights,
                     quantized)


def decode_csf(stream: CsfStream) -> np.ndarray:
    """Expand a stream back to the dense bank (m, channels, kernel, kernel).

    An fc stream's bank is (m, positions, 1, 1): both are the bank
    `decode -o` writes.
    """
    out = np.zeros((stream.filters, stream.position_count), np.float32)
    rows = np.repeat(np.arange(stream.position_count), stream.counts)
    out[stream.indices, rows] = stream.weights
    return out.reshape(stream.filters, stream.channels, stream.kernel,
                       stream.kernel)


def serialize_csf(stream: CsfStream) -> bytes:
    """Pack a stream into its byte representation."""
    entries = np.empty(stream.total_nnz, _ENTRY)
    entries["rel"] = stream.rel
    entries["weight"] = stream.weights
    # position p's count goes in front of its entries, at word 3 * offsets[p]
    words = np.insert(entries.view("<u2"), 3 * stream.offsets[:-1],
                      stream.counts)
    # the entries go before the join copies the words: two copies of the
    # body at most, never three
    del entries
    header = _HEADER.pack(MAGIC, VERSION, _PROFILES[stream.profile],
                          1 if stream.quantized else 0, stream.filters,
                          stream.channels, stream.kernel, stream.position_count)
    return b"".join((header, words))


def deserialize_csf(data: bytes) -> CsfStream:
    """Parse stream bytes; raises CsfFormatError on any malformation."""
    if len(data) < HEADER_LEN:
        raise CsfFormatError(f"{len(data)} bytes is shorter than the header")
    (magic, version, profile_code, dtype_code, filters, channels, kernel,
     position_count) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CsfFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CsfFormatError(f"unsupported version {version}")
    if profile_code not in _PROFILE_NAMES:
        raise CsfFormatError(f"unknown profile code {profile_code}")
    if dtype_code not in (0, 1):
        raise CsfFormatError(f"unknown dtype code {dtype_code}")
    words = np.frombuffer(data, "<u2", (len(data) - HEADER_LEN) // 2,
                          HEADER_LEN)
    # walk the count words only, to find truncation and trailing bytes; the
    # stream's constructor checks the rest, header shape included. The
    # host-order view yields Python ints, so 1 + 3 * count cannot wrap
    count_words = memoryview(words.astype("=u2", copy=False))
    # the header's position count is untrusted: the list grows as the
    # walk goes, and the first count read past the body ends it
    starts = []
    at = 0
    try:
        for p in range(position_count):
            starts.append(at)
            at += 1 + 3 * count_words[at]
    except IndexError:
        # a read at the body's end finds position p's count field cut; one
        # past it, position p - 1's entries ran over the end
        if at == len(count_words):
            raise CsfFormatError(
                f"truncated at position {p} count field") from None
        p -= 1
    if at > len(count_words):
        raise CsfFormatError(f"truncated in position {p} entries")
    trailing = len(data) - HEADER_LEN - 2 * at
    if trailing:
        raise CsfFormatError(f"{trailing} trailing bytes after stream")
    # past the walk, the words left once the counts go are whole entries
    entries = np.delete(words, starts).view(_ENTRY)
    return CsfStream(_PROFILE_NAMES[profile_code], filters, channels, kernel,
                     words[starts], entries["rel"], entries["weight"],
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

    The bank is rounded `_QUANTIZE_CHUNK` weights at a time, so beside
    the bank and its result the scratch stays a few chunks long. Every
    weight is rounded on its own, so the chunks change no result.
    """
    if exp_min > exp_max:
        raise ValueError(f"exponent range [{exp_min}, {exp_max}] is empty")
    if exp_min < -149 or exp_max > 127:
        raise ValueError(f"exponent range [{exp_min}, {exp_max}] leaves "
                         f"float32's [-149, 127]")
    arr = np.asarray(bank, dtype=np.float32)
    out = np.zeros(arr.shape, np.float32)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _QUANTIZE_CHUNK):
        w = flat[start:start + _QUANTIZE_CHUNK]
        if not np.isfinite(w).all():
            raise ValueError("bank contains non-finite weights")
        nz = w != 0
        mags = np.abs(w[nz]).astype(np.float64)
        exps = np.clip(np.ceil(np.log2(mags) - 0.5), exp_min, exp_max)
        flat_out[start:start + _QUANTIZE_CHUNK][nz] = (
            np.sign(w[nz]) * np.exp2(exps).astype(np.float32))
    return out
