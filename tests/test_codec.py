"""Stream encoding, byte serialization, and the shift quantizer."""

import struct

import numpy as np
import pytest

from csfsim import (CsfFormatError, CsfRangeError, CsfStream, LayerSpec,
                    decode_csf, deserialize_csf, encode_csf, quantize_shift,
                    random_sparse_filters, serialize_csf, stack_filters)


def _bank(m=8, c=2, k=3, density=0.5, seed=0):
    layer = LayerSpec("b", "conv", c, k, k, k, 1, 0, m)
    return random_sparse_filters(layer, density, seed)


class TestStackFilters:
    def test_single_filter_stack(self):
        bank = _bank(m=4, density=1.0)
        stacked = stack_filters(bank, 2, 1)
        assert stacked.shape == (2, 3, 3, 1)
        assert np.array_equal(stacked[..., 0], bank[2])

    def test_stack_unstack_roundtrip(self):
        bank = _bank(m=6, density=0.7, seed=3)
        stacked = stack_filters(bank, 1, 4)
        assert np.array_equal(np.moveaxis(stacked, -1, 0), bank[1:5])

    def test_index_map_spot_check(self):
        bank = _bank(m=8, c=4, density=1.0, seed=5)
        stacked = stack_filters(bank, 2, 5)
        assert stacked[1, 2, 0, 3] == bank[2 + 3, 1, 2, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            stack_filters(_bank(m=4), 2, 3)


class TestEncode:
    def test_all_zero_batch(self):
        stream = encode_csf(np.zeros((2, 3, 3, 4), np.float32), "conv")
        assert stream.position_count == 18
        assert stream.counts.tolist() == [0] * 18
        assert stream.total_nnz == 0

    @pytest.mark.parametrize("shape, profile", [((1, 1, 1, 0), "conv"),
                                                ((2, 3, 0), "fc")])
    def test_empty_filter_axis(self, shape, profile):
        stream = encode_csf(np.zeros(shape, np.float32), profile)
        assert (stream.filters, stream.total_nnz) == (0, 0)
        assert stream.counts.tolist() == [0] * stream.position_count
        blob = serialize_csf(stream)
        assert len(blob) == 24 + 2 * stream.position_count
        assert deserialize_csf(blob) == stream

    def test_fully_dense_delta_pattern(self):
        stream = encode_csf(np.ones((1, 1, 1, 4), np.float32), "conv")
        rels = stream.rel[stream.offsets[0]:stream.offsets[1]].tolist()
        assert rels == [0, 1, 1, 1]

    def test_count_conservation_and_roundtrip(self):
        bank = _bank(m=8, c=2, k=3, density=0.25, seed=9)
        stacked = stack_filters(bank, 0, 8)
        stream = encode_csf(stacked, "conv")
        assert stream.total_nnz == np.count_nonzero(stacked)
        assert np.array_equal(decode_csf(stream), stacked)

    def test_first_entry_is_absolute_index(self):
        stacked = np.zeros((1, 1, 1, 8), np.float32)
        stacked[0, 0, 0, 5] = 2.5
        stream = encode_csf(stacked, "conv")
        assert stream.counts[0] == 1
        assert (stream.rel[0], stream.weights[0]) == (5, 2.5)

    def test_fc_flattens_spatial_axes(self):
        stacked = np.zeros((2, 3, 4, 6), np.float32)
        stream = encode_csf(stacked, "fc")
        assert stream.profile == "fc"
        assert (stream.channels, stream.kernel) == (24, 1)
        assert stream.position_count == 24

    def test_conv_needs_square_kernel(self):
        with pytest.raises(CsfFormatError, match="conv stack"):
            encode_csf(np.zeros((2, 3, 4, 6), np.float32), "conv")

    def test_unknown_profile(self):
        with pytest.raises(CsfFormatError, match="profile"):
            encode_csf(np.zeros((1, 1, 1, 1), np.float32), "dense")

    def test_too_many_filters_for_index_field(self):
        with pytest.raises(CsfRangeError, match="u16"):
            encode_csf(np.ones((1, 1, 1, 0x10000), np.float32), "conv")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        stacked = np.ones((2, 3, 3, 4), np.float32)
        stacked[1, 2, 0, 3] = bad
        with pytest.raises(CsfFormatError, match="non-finite weight"):
            encode_csf(stacked, "conv")

    def test_generated_bank_roundtrips_byte_for_byte(self):
        # dropped weights must be +0.0, or decode would differ in sign bits
        bank = _bank(m=16, c=4, k=3, density=0.3, seed=41)
        stacked = stack_filters(bank, 0, 16)
        assert not np.signbit(stacked[stacked == 0]).any()
        decoded = decode_csf(encode_csf(stacked, "conv"))
        assert decoded.tobytes() == stacked.tobytes()


class TestDecode:
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_roundtrip_by_density(self, density):
        bank = _bank(m=8, density=density, seed=17)
        stacked = stack_filters(bank, 0, 8)
        assert np.array_equal(decode_csf(encode_csf(stacked, "conv")), stacked)

    def test_single_entry_placement(self):
        stream = CsfStream("conv", 4, 1, 3, [1] + [0] * 8, [3], [2.5])
        dense = decode_csf(stream)
        assert dense[0, 0, 0, 3] == 2.5
        assert np.count_nonzero(dense) == 1

    # malformed structure is caught when the stream is built, so no
    # stream that exists can fail to decode, serialize or run
    def test_index_overflow_is_malformed(self):
        with pytest.raises(CsfFormatError, match="outside"):
            CsfStream("conv", 4, 1, 1, [3], [0, 2, 2], [1.0, 1.0, 1.0])

    def test_non_ascending_index_is_malformed(self):
        with pytest.raises(CsfFormatError, match="ascending"):
            CsfStream("conv", 4, 1, 1, [2], [1, 0], [1.0, 1.0])

    def test_position_count_mismatch_rejected(self):
        with pytest.raises(CsfFormatError, match="position count"):
            CsfStream("conv", 2, 1, 3, [0], [], [])

    def test_indices_undo_delta_coding(self):
        stream = CsfStream("conv", 8, 1, 1, [3], [2, 1, 4], [1.0, 1.0, 1.0])
        assert stream.indices.tolist() == [2, 3, 7]

    def test_delta_coding_restarts_at_each_position(self):
        stream = CsfStream("fc", 8, 3, 1, [2, 0, 2], [2, 1, 4, 3],
                           [1.0, 2.0, 3.0, 4.0])
        assert stream.offsets.tolist() == [0, 2, 2, 4]
        assert stream.indices.tolist() == [2, 3, 4, 7]

    def test_entry_array_lengths_must_agree(self):
        with pytest.raises(CsfFormatError, match="entries"):
            CsfStream("conv", 4, 1, 1, [2], [0, 1], [1.0])
        with pytest.raises(CsfFormatError, match="entries"):
            CsfStream("conv", 4, 1, 1, [1], [0, 1], [1.0, 1.0])

    def test_header_field_overflow(self):
        with pytest.raises(CsfRangeError, match="u32"):
            CsfStream("fc", 1 << 32, 1, 1, [0], [], [])

    def test_count_field_overflow(self):
        with pytest.raises(CsfRangeError, match="u16"):
            CsfStream("fc", 4, 1, 1, [0x10000], [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_malformed(self, bad):
        with pytest.raises(CsfFormatError, match="non-finite"):
            CsfStream("fc", 4, 2, 1, [0, 2], [0, 1], [1.0, bad])

    def test_arrays_are_read_only(self):
        stream = encode_csf(np.ones((1, 1, 1, 4), np.float32), "conv")
        with pytest.raises(ValueError):
            stream.weights[0] = 2.0


class TestSerialization:
    def test_golden_empty_stream_bytes(self):
        # hand-assembled from the layout: magic, version, profile, dtype,
        # filters, channels, kernel, position count, then one zero count
        stream = encode_csf(np.zeros((1, 1, 1, 2), np.float32), "conv")
        blob = serialize_csf(stream)
        want = (b"CSF1"
                + struct.pack("<HBB", 1, 1, 0)
                + struct.pack("<IIII", 2, 1, 1, 1)
                + struct.pack("<H", 0))
        assert blob == want
        assert len(blob) == 26

    def test_golden_single_entry_bytes(self):
        stacked = np.zeros((1, 1, 1, 4), np.float32)
        stacked[0, 0, 0, 3] = 2.5
        blob = serialize_csf(encode_csf(stacked, "conv"))
        want = (b"CSF1"
                + struct.pack("<HBB", 1, 1, 0)
                + struct.pack("<IIII", 4, 1, 1, 1)
                + struct.pack("<H", 1)
                + struct.pack("<Hf", 3, 2.5))
        assert blob == want

    def test_byte_length_formula(self):
        bank = _bank(m=8, c=3, k=3, density=0.4, seed=23)
        stream = encode_csf(stack_filters(bank, 0, 8), "conv")
        blob = serialize_csf(stream)
        assert len(blob) == 24 + sum(2 + 6 * int(c) for c in stream.counts)

    @pytest.mark.parametrize("seed", range(100))
    def test_roundtrip_identity_over_seeds(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 17))
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        profile = "conv" if rng.random() < 0.5 else "fc"
        layer = LayerSpec("r", "conv", c, k, k, k, 1, 0, m)
        bank = random_sparse_filters(layer, float(rng.random()), seed + 999)
        stacked = stack_filters(bank, 0, m)
        stream = encode_csf(stacked, profile, quantized=bool(rng.random() < 0.3))
        assert deserialize_csf(serialize_csf(stream)) == stream

    def test_truncated_header(self):
        with pytest.raises(CsfFormatError, match="header"):
            deserialize_csf(b"CSF1\x01\x00")

    def test_truncated_entries(self):
        stacked = np.ones((1, 1, 1, 4), np.float32)
        blob = serialize_csf(encode_csf(stacked, "conv"))
        for cut in (len(blob) - 1, len(blob) - 7, 25):
            with pytest.raises(CsfFormatError, match="truncated"):
                deserialize_csf(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = serialize_csf(encode_csf(np.zeros((1, 1, 1, 2), np.float32),
                                        "conv"))
        with pytest.raises(CsfFormatError, match="trailing"):
            deserialize_csf(blob + b"\x00")

    def test_bad_magic(self):
        blob = serialize_csf(encode_csf(np.zeros((1, 1, 1, 2), np.float32),
                                        "conv"))
        with pytest.raises(CsfFormatError, match="magic"):
            deserialize_csf(b"XSF1" + blob[4:])

    def test_bad_version(self):
        blob = serialize_csf(encode_csf(np.zeros((1, 1, 1, 2), np.float32),
                                        "conv"))
        with pytest.raises(CsfFormatError, match="version"):
            deserialize_csf(blob[:4] + struct.pack("<H", 9) + blob[6:])

    def test_bad_profile_code(self):
        blob = serialize_csf(encode_csf(np.zeros((1, 1, 1, 2), np.float32),
                                        "conv"))
        with pytest.raises(CsfFormatError, match="profile"):
            deserialize_csf(blob[:6] + b"\x07" + blob[7:])

    def test_header_shape_inconsistency(self):
        # position count that cannot come from the declared channels/kernel
        blob = (b"CSF1" + struct.pack("<HBB", 1, 1, 0)
                + struct.pack("<IIII", 2, 1, 1, 5) + struct.pack("<H", 0) * 5)
        with pytest.raises(CsfFormatError, match="position count"):
            deserialize_csf(blob)

    def test_rel_index_field_overflow(self):
        # now refused when the stream is built, before serialize is reached
        with pytest.raises((CsfRangeError, CsfFormatError)):
            serialize_csf(CsfStream("conv", 0x10001, 1, 1, [1], [0x10000],
                                    [1.0]))

    def test_quantized_flag_survives(self):
        stream = encode_csf(np.ones((1, 1, 1, 2), np.float32), "conv",
                            quantized=True)
        assert deserialize_csf(serialize_csf(stream)).quantized


class TestQuantizeShift:
    def test_power_of_two_unchanged(self):
        assert quantize_shift(np.float32([0.5]), -8, 8)[0] == 0.5

    def test_zero_stays_zero(self):
        assert quantize_shift(np.float32([0.0]), -8, 8)[0] == 0.0

    def test_nearest_exponent(self):
        # log2(3) = 1.585 is nearer exponent 2 than 1
        assert quantize_shift(np.float32([-3.0]), -8, 8)[0] == -4.0

    def test_tie_goes_to_smaller_exponent(self):
        # 2^1.5 sits exactly between exponents 1 and 2
        assert quantize_shift(np.float32([2.0 ** 1.5]), -8, 8)[0] == 2.0

    def test_clamping(self):
        out = quantize_shift(np.float32([100.0, 1e-9]), -4, 4)
        assert out[0] == 16.0 and out[1] == 2.0 ** -4

    def test_output_value_set(self):
        bank = _bank(m=16, c=4, density=0.6, seed=31)
        out = quantize_shift(bank, -6, 2)
        allowed = {0.0} | {s * 2.0 ** e for e in range(-6, 3) for s in (1, -1)}
        assert set(np.unique(out)).issubset(allowed)
        assert np.array_equal(out == 0, bank == 0)

    def test_empty_exponent_range(self):
        with pytest.raises(ValueError, match="empty"):
            quantize_shift(np.float32([1.0]), 3, 2)

    @pytest.mark.parametrize("exp_min, exp_max",
                             [(200, 300), (-300, -200), (-150, 0), (0, 128)])
    def test_exponents_outside_float32_rejected(self, exp_min, exp_max):
        with pytest.raises(ValueError, match="float32"):
            quantize_shift(np.float32([1.0]), exp_min, exp_max)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # clamping inf to 2**exp_max would encode a weight the bank never held
        with pytest.raises(ValueError, match="non-finite"):
            quantize_shift(np.float32([1.0, bad, 0.0]), -8, 8)

    def test_float32_exponent_limits_keep_sparsity(self):
        bank = np.float32([1e-45, -1e-40, 0.0, 3e38, -1.0])
        out = quantize_shift(bank, -149, 127)
        assert np.isfinite(out).all()
        assert np.array_equal(out == 0, bank == 0)
        assert out[0] == 2.0 ** -149 and out[3] == 2.0 ** 127
