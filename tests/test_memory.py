"""Traced working-memory bounds of generation, the engine, encode and decode.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every bank, output and scratch array a call allocates, and the same call
peaks the same way every run.
"""

import tracemalloc

import numpy as np
import pytest

from csfsim import (LayerSpec, dense_conv, dense_fc, encode_csf,
                    random_sparse_filters, run_conv, run_layer_batched,
                    serialize_csf, stack_filters)
from csfsim.cli import main, write_weight_bank

MB = 1 << 20


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_peaks_near_the_bank():
    # VGG16 CONV5-1: 2.36M weights, a 9 MiB bank; three whole-bank
    # float64 draws would peak near 65 MiB, three chunks take 1.5 MiB
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    # the first seeding imports modules, which tracemalloc would count
    random_sparse_filters(LayerSpec("w", "fc", 1, 1, 1, 1, 1, 0, 1), 0.5, 0)
    bank, peak = _traced_peak(random_sparse_filters, layer, 0.1, 1)
    assert peak <= bank.nbytes + 2 * MB


def test_dense_fc_checks_the_bank_in_place():
    # AlexNet FC6's input as a 256-filter, 9 MiB bank: a float32 bank
    # passes through as it is, and a finiteness check through a boolean
    # mask would add a quarter bank
    layer = LayerSpec("FC", "fc", 256, 6, 6, 1, 1, 0, 256)
    bank = random_sparse_filters(layer, 0.1, 3)
    features = np.random.default_rng(4).random((256, 6, 6), np.float32)
    _, peak = _traced_peak(dense_fc, features, bank, layer)
    assert peak < bank.nbytes / 8


def _dense_conv_conv1_1_peak(density):
    """dense_conv on VGG16 CONV1-1: its output and the peak."""
    layer = LayerSpec("CONV1-1", "conv", 3, 224, 224, 3, 1, 1, 64)
    bank = random_sparse_filters(layer, density, 2)
    features = np.random.default_rng(1).random((3, 224, 224), np.float32)
    return _traced_peak(dense_conv, features, bank, layer)


def test_dense_conv_scratch_stays_near_the_output():
    # VGG16 CONV1-1 at d0.1: a 12.25 MiB output, in 13 tiles of 18 rows.
    # One tile's accumulator (its output rows and a partial-sum row per
    # filter, 2 MiB), the padded input (0.6 MiB), the tile's window rows
    # and one tap's products traced at 3.13 MiB. Partial sums over the
    # whole plane would not fit, and neither would a tile of dense
    # products (1 MiB) made up front, as no channel is dense
    out, peak = _dense_conv_conv1_1_peak(0.1)
    assert peak <= out.nbytes + 3.5 * MB


@pytest.mark.parametrize("density", [0.5, 1.0], ids=["d0.5", "d1.0"])
def test_dense_conv_scratch_of_dense_channels(density):
    # the same layer with every channel dense: one tile of products (1
    # MiB) beside the accumulator, the window rows and the padded input
    # traced at 3.69 MiB
    out, peak = _dense_conv_conv1_1_peak(density)
    assert peak <= out.nbytes + 4 * MB


def test_dense_conv_lists_one_channel_group_at_a_time():
    # VGG16 CONV4-1 at d0.35: every channel is listed, just under the
    # dense share, so the listing is at its largest. The output is 1.5
    # MiB and one tile: its accumulator (3 MiB, the output rows
    # included), the padded input (0.9 MiB), the window rows and one
    # group of channels' listing traced at 4.16 MiB. One listing for the
    # whole layer would take 28.3 MiB
    layer = LayerSpec("CONV4-1", "conv", 256, 28, 28, 3, 1, 1, 512)
    bank = random_sparse_filters(layer, 0.35, 2)
    features = np.random.default_rng(1).random((256, 28, 28), np.float32)
    out, peak = _traced_peak(dense_conv, features, bank, layer)
    assert peak <= out.nbytes + 4.5 * MB


def test_dense_conv_one_tile_result_owns_its_bytes():
    # a one-tile layer returns a fresh array: a view of the accumulator's
    # output rows would keep its partial-sum rows alive with it
    layer = LayerSpec("one", "conv", 4, 12, 12, 3, 1, 1, 16)
    bank = random_sparse_filters(layer, 0.3, 3)
    features = np.random.default_rng(4).random((4, 12, 12), np.float32)
    out = dense_conv(features, bank, layer)
    owner = out
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == out.nbytes


def _run_conv_conv1_1_peak(density, batched=False):
    """VGG16 CONV1-1 as one 64-filter stack: its output and the peak.

    Batched, run_layer_batched encodes the stack as well as running it.
    """
    layer = LayerSpec("CONV1-1", "conv", 3, 224, 224, 3, 1, 1, 64)
    bank = random_sparse_filters(layer, density, 2)
    features = np.random.default_rng(1).random((3, 224, 224), np.float32)
    if batched:
        (out, _), peak = _traced_peak(run_layer_batched, bank, features,
                                      layer, 64)
    else:
        stream = encode_csf(stack_filters(bank, 0, 64), "conv")
        (out, _), peak = _traced_peak(run_conv, stream, features, layer)
    return out, peak


def test_run_conv_tiles_a_large_channel():
    # VGG16 CONV1-1 as one 64-filter stack: a 12.25 MiB output, and one
    # channel's registers would take as much again. It runs in tiles of 9
    # output rows: one tile's registers and one channel's flush take 0.5
    # MiB each, and with the padded input (0.6 MiB) and the window rows
    # scratch traced at 1.8 MiB at d0.1
    out, peak = _run_conv_conv1_1_peak(0.1)
    assert peak <= out.nbytes + 2.25 * MB


def test_run_conv_tiles_a_large_channel_at_half_density():
    # the same stack at d0.5: one rank's products add 0.5 MiB more, and
    # scratch traced at 2.15 MiB
    out, peak = _run_conv_conv1_1_peak(0.5)
    assert peak <= out.nbytes + 2.5 * MB


def test_one_stack_layer_returns_the_stack_output():
    # the same layer through run_layer_batched in one 64-filter stack:
    # the stack's output is the layer's, and scratch traced at 1.8 MiB
    # at d0.1. Copying it into a layer output would add 12.25 MiB
    out, peak = _run_conv_conv1_1_peak(0.1, batched=True)
    assert peak <= out.nbytes + 2.25 * MB


def _run_conv_conv5_1_peak(density, filters):
    """VGG16 CONV5-1's first `filters` filters as one stack: its output
    and the peak."""
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    stream = encode_csf(stack_filters(
        random_sparse_filters(layer, density, 2), 0, filters), "conv")
    features = np.random.default_rng(1).random((512, 14, 14), np.float32)
    (out, _), peak = _traced_peak(run_conv, stream, features, layer)
    return out, peak


def test_run_conv_blocks_hold_one_block_of_registers():
    # VGG16 CONV5-1 as one 64-filter stack runs in 10-channel blocks:
    # one block's registers take 0.5 MiB, and registers for all 512
    # channels would take 24.5 MiB. With the padded input (0.5 MiB),
    # each entry's rank and slot and one rank's products, scratch traced
    # at 1.9 MiB at d0.1
    out, peak = _run_conv_conv5_1_peak(0.1, 64)
    assert peak <= out.nbytes + 2.25 * MB


def test_run_conv_block_set_up_stays_small_at_half_density():
    # the same stack at d0.5 holds five times the entries: with the set-up
    # of all 147K entries in int32, scratch traced at 3.6 MiB. The same
    # set-up in intp traces 5.4 MiB
    out, peak = _run_conv_conv5_1_peak(0.5, 64)
    assert peak <= out.nbytes + 4.5 * MB


def test_run_conv_whole_layer_stack_set_up():
    # all 512 filters of CONV5-1 at d0.5 as one stack, 1.18M entries: an
    # intp row and a float32 weight per entry, and while they are made an
    # int32 position and sequence, traced at 21.0 MiB. An intp set-up
    # traces 39.9 MiB
    out, peak = _run_conv_conv5_1_peak(0.5, 512)
    assert peak <= out.nbytes + 22 * MB


@pytest.mark.parametrize("density", [0.1, 0.5], ids=["d0.1", "d0.5"])
def test_serialize_frees_the_entries_before_the_join(density):
    # all 512 filters of CONV5-1 as one stack: the packed entries, the
    # words with the counts put in and the joined bytes are about one
    # stream body each, and freeing the entries before the join traced
    # at 2.57 bodies at d0.1 and 2.51 at d0.5. Holding all three traced
    # at 3.0
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    stream = encode_csf(stack_filters(
        random_sparse_filters(layer, density, 2), 0, 512), "conv")
    payload, peak = _traced_peak(serialize_csf, stream)
    assert peak <= 2.75 * len(payload)


def test_decode_writes_the_bank_it_decoded(tmp_path):
    # VGG16 CONV5-1 again: the decoded 9 MiB block goes to the file as
    # it is, and the stream's bytes and arrays take about 5 MiB more. A
    # transposed copy or a bytes copy of the block would add 9 MiB each
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    bank = random_sparse_filters(layer, 0.1, 1)
    bank_path, csf_path = tmp_path / "bank", tmp_path / "bank.csf"
    write_weight_bank(bank_path, bank)
    assert main(["encode", str(bank_path), "-o", str(csf_path)]) == 0
    code, peak = _traced_peak(
        main, ["decode", str(csf_path), "-o", str(tmp_path / "back")])
    assert code == 0
    assert peak <= 2 * bank.nbytes


@pytest.mark.parametrize("profile", ["conv", "fc"])
def test_encode_peaks_near_two_banks(tmp_path, profile):
    # VGG16 CONV5-1 at d0.1: the bank bytes read are one bank, and the
    # stack is a view of them. The nonzero mask in the bank's layout and
    # its transposed copy are a quarter bank each, and an int64 array
    # over the 236K nonzeros is a fifth: encoding traced at 0.77 of a
    # bank more. Serializing holds two copies of the body at most, the
    # words and the joined bytes, and traced at 0.74. The whole command
    # traced at 1.79 banks, 1.77 for fc; a stacked copy of the bank
    # would add one bank
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    bank = random_sparse_filters(layer, 0.1, 1)
    bank_path = tmp_path / "bank"
    write_weight_bank(bank_path, bank)
    code, peak = _traced_peak(
        main, ["encode", str(bank_path), "-o", str(tmp_path / "bank.csf"),
               "--profile", profile])
    assert code == 0
    assert peak <= 2.2 * bank.nbytes


def test_quantized_encode_peaks_near_two_banks(tmp_path):
    # the same bank with --quantize-shift: the bank read and its quantized
    # copy are two banks, and rounding a chunk at a time adds 0.03 of a
    # bank: the command traced at 2.03 banks. Rounding the whole
    # bank at once, through a mask and float64 arrays over every
    # nonzero, traced at 3.05
    layer = LayerSpec("CONV5-1", "conv", 512, 14, 14, 3, 1, 1, 512)
    bank = random_sparse_filters(layer, 0.1, 1)
    bank_path = tmp_path / "bank"
    write_weight_bank(bank_path, bank)
    code, peak = _traced_peak(
        main, ["encode", str(bank_path), "-o", str(tmp_path / "bank.csf"),
               "--quantize-shift", "-8", "0"])
    assert code == 0
    assert peak <= 2.5 * bank.nbytes
