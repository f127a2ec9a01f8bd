"""Streaming engine vs dense oracles, plus trace accounting."""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from csfsim import (LayerSpec, TraceCounters, dense_conv, dense_fc,
                    encode_csf, engine, output_shape, plan_filter_grouping,
                    random_sparse_filters, run_conv, run_fc,
                    run_layer_batched, stack_filters)
from csfsim.cli import _load_config
from scalar_engine import EngineContext


def _rand_input(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 2.0 - 1.0).astype(np.float32)


def _conv_stream(bank):
    return encode_csf(stack_filters(bank, 0, bank.shape[0]), "conv")


def _fc_stream(bank):
    return encode_csf(stack_filters(bank, 0, bank.shape[0]), "fc")


def _same_bytes(a, b):
    """Equal shapes and bytes; unlike ==, tells -0.0 from +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRunFc:
    def test_empty_stream_zero_output(self):
        layer = LayerSpec("e", "fc", 2, 3, 3, 1, 1, 0, 5)
        bank = np.zeros((5, 2, 3, 3), np.float32)
        out, trace = run_fc(_fc_stream(bank), np.ones((2, 3, 3), np.float32))
        assert not out.any()
        assert trace.macs_executed == 0
        assert trace.feature_loads == 18

    def test_single_entry(self):
        bank = np.zeros((5, 1, 2, 2), np.float32)
        bank[3, 0, 1, 0] = 2.0  # flat position 2
        x = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        out, _ = run_fc(_fc_stream(bank), x)
        want = np.zeros((5, 1, 1), np.float32)
        want[3, 0, 0] = 2.0 * x[0, 1, 0]
        assert np.array_equal(out, want)

    def test_matches_dense_oracle_bitwise(self):
        layer = LayerSpec("r", "fc", 2, 4, 4, 1, 1, 0, 16)
        bank = random_sparse_filters(layer, 0.3, 6)
        x = _rand_input((2, 4, 4), 7)
        out, trace = run_fc(_fc_stream(bank), x)
        assert _same_bytes(out, dense_fc(x, bank, layer))
        assert trace.macs_executed == np.count_nonzero(bank)
        assert trace.feature_loads == trace.pointer_loads == 32
        assert trace.simd_instructions == 32

    def test_length_mismatch(self):
        bank = np.zeros((5, 2, 3, 3), np.float32)
        with pytest.raises(ValueError, match="length"):
            run_fc(_fc_stream(bank), np.ones((2, 3, 4), np.float32))

    def test_profile_guard(self):
        bank = np.zeros((5, 2, 3, 3), np.float32)
        with pytest.raises(ValueError, match="fc stream"):
            run_fc(_conv_stream(bank), np.ones((2, 3, 3), np.float32))


class TestFcIsConvOnOnePixel:
    """FC is the conv rule on a 1x1 plane whose channels are the input."""

    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("fc", [
        LayerSpec("FC1", "fc", 50, 4, 4, 1, 1, 0, 500),  # lenet's
        LayerSpec("FC2", "fc", 500, 1, 1, 1, 1, 0, 10),
        LayerSpec("odd", "fc", 5, 3, 2, 1, 1, 0, 11)], ids=lambda l: l.name)
    def test_bytes_and_counters(self, fc, density):
        n = fc.channels * fc.height * fc.width
        conv = LayerSpec(fc.name, "conv", n, 1, 1, 1, 1, 0, fc.filters)
        bank = random_sparse_filters(fc, density, 90)
        x = _rand_input((fc.channels, fc.height, fc.width), 91)
        plane_bank, plane_x = bank.reshape(-1, n, 1, 1), x.reshape(n, 1, 1)
        assert _same_bytes(dense_fc(x, bank, fc),
                           dense_conv(plane_x, plane_bank, conv))
        out, trace = run_layer_batched(bank, x, fc, 64)
        plane_out, plane_trace = run_layer_batched(plane_bank, plane_x, conv,
                                                   64)
        assert _same_bytes(out, plane_out)
        assert vars(trace) == vars(plane_trace)


class TestSimd3dStep:
    def test_zero_features_still_stream(self):
        layer = LayerSpec("z", "conv", 1, 3, 3, 3, 1, 0, 2)
        bank = random_sparse_filters(layer, 1.0, 0)
        ctx = EngineContext(layer, _conv_stream(bank), np.zeros((1, 3, 3)))
        registers = ctx.simd3d_step(0, 0, 0)
        assert not registers.any()
        assert ctx.counters.weight_loads == 18
        assert ctx.counters.feature_loads == 9

    def test_unit_kernel_single_entry(self):
        layer = LayerSpec("u", "conv", 1, 2, 2, 1, 1, 0, 4)
        bank = np.zeros((4, 1, 1, 1), np.float32)
        bank[2, 0, 0, 0] = 3.0
        x = np.array([[[1.5, 2.0], [0.0, -1.0]]], np.float32)
        ctx = EngineContext(layer, _conv_stream(bank), x)
        registers = ctx.simd3d_step(0, 0, 1)
        assert registers[2] == 3.0 * 2.0
        assert not registers[[0, 1, 3]].any()

    def test_dense_window_of_ones(self):
        layer = LayerSpec("w", "conv", 1, 3, 3, 3, 1, 0, 2)
        bank = np.ones((2, 1, 3, 3), np.float32)
        ctx = EngineContext(layer, _conv_stream(bank),
                            np.ones((1, 3, 3), np.float32))
        registers = ctx.simd3d_step(0, 0, 0)
        assert np.array_equal(registers, [9.0, 9.0])
        assert np.array_equal(ctx.global_buffer[:, 0, 0], [9.0, 9.0])

    def test_flush_accumulates_across_channels(self):
        layer = LayerSpec("a", "conv", 2, 1, 1, 1, 1, 0, 1)
        bank = np.ones((1, 2, 1, 1), np.float32)
        x = np.array([[[2.0]], [[5.0]]], np.float32)
        ctx = EngineContext(layer, _conv_stream(bank), x)
        ctx.simd3d_step(0, 0, 0)
        ctx.simd3d_step(1, 0, 0)
        assert ctx.global_buffer[0, 0, 0] == 7.0

    def test_full_run_matches_vectorized_and_oracle(self):
        layer = LayerSpec("f", "conv", 4, 9, 8, 3, 2, 1, 6)
        bank = random_sparse_filters(layer, 0.4, 99)
        x = _rand_input((4, 9, 8), 5)
        stream = _conv_stream(bank)
        ctx = EngineContext(layer, stream, x)
        scalar = ctx.run()
        vectorized, trace = run_conv(stream, x, layer)
        assert _same_bytes(scalar, vectorized)
        assert _same_bytes(scalar, dense_conv(x, bank, layer))
        assert vars(ctx.counters) == vars(trace)


class TestRunConv:
    def test_channel_sum_identity(self):
        layer = LayerSpec("c", "conv", 3, 5, 5, 1, 1, 0, 1)
        bank = np.ones((1, 3, 1, 1), np.float32)
        x = _rand_input((3, 5, 5), 13)
        out, _ = run_conv(_conv_stream(bank), x, layer)
        assert np.array_equal(out[0], x[0] + x[1] + x[2])

    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_matches_dense_oracle_bitwise(self, density):
        layer = LayerSpec("r", "conv", 4, 8, 8, 3, 1, 0, 8)
        bank = random_sparse_filters(layer, density, 21)
        x = _rand_input((4, 8, 8), 22)
        out, _ = run_conv(_conv_stream(bank), x, layer)
        assert _same_bytes(out, dense_conv(x, bank, layer))

    @pytest.mark.parametrize("kernel, empty_tap", [(5, 0), (11, 120)])
    def test_block_ranks_skip_empty_positions(self, kernel, empty_tap):
        # the first and last channels hold no entries and one tap holds
        # none in any channel, so the (channel, tap) positions run_conv
        # ranks entries over include empty ones at both ends of the
        # stream
        layer = LayerSpec("g", "conv", 4, kernel + 1, kernel, kernel, 1, 1, 5)
        bank = random_sparse_filters(layer, 0.6, kernel)
        bank[:, [0, -1]] = 0.0
        bank.reshape(5, 4, kernel * kernel)[:, :, empty_tap] = 0.0
        stream = _conv_stream(bank)
        runs = stream.counts.reshape(4, kernel * kernel)
        assert not runs[[0, -1]].any() and not runs[:, empty_tap].any()
        assert runs[1:-1].all(axis=0).sum() >= kernel
        x = _rand_input((4, kernel + 1, kernel), kernel + 1)
        out, trace = run_conv(stream, x, layer)
        ctx = EngineContext(layer, stream, x)
        assert ctx.run().tobytes() == out.tobytes()
        assert dense_conv(x, bank, layer).tobytes() == out.tobytes()
        assert vars(ctx.counters) == vars(trace)

    def test_dense_alexnet_first_layer_trace(self):
        layer = LayerSpec("a1", "conv", 3, 227, 227, 11, 4, 0, 96)
        bank = random_sparse_filters(layer, 1.0, 1)
        x = np.zeros((3, 227, 227), np.float32)
        _, trace = run_conv(_conv_stream(bank), x, layer)
        assert trace.macs_executed == 105_415_200
        assert trace.weight_loads == trace.index_loads == 105_415_200
        assert trace.simd_instructions == 3 * 55 * 55
        assert trace.feature_loads == 3 * 55 * 55 * 121

    def test_sparsity_is_exploited(self):
        layer = LayerSpec("s", "conv", 4, 10, 10, 3, 1, 1, 16)
        bank = random_sparse_filters(layer, 0.2, 30)
        x = _rand_input((4, 10, 10), 31)
        out_w, out_h = output_shape(layer)
        _, trace = run_conv(_conv_stream(bank), x, layer)
        assert trace.macs_executed == np.count_nonzero(bank) * out_h * out_w
        assert trace.macs_executed < bank.size * out_h * out_w

    def test_trace_identity(self):
        layer = LayerSpec("t", "conv", 2, 6, 6, 3, 1, 0, 4)
        bank = random_sparse_filters(layer, 0.5, 40)
        _, trace = run_conv(_conv_stream(bank), _rand_input((2, 6, 6), 41),
                            layer)
        assert trace.weight_loads == trace.index_loads == trace.macs_executed

    @pytest.mark.parametrize("run, who", [
        (lambda layer, stream, x: run_conv(stream, x, layer), "run_conv"),
        (EngineContext, "instruction stepping")], ids=["run_conv", "context"])
    @pytest.mark.parametrize("fc_layer", [True, False],
                             ids=["fc-layer", "fc-stream"])
    def test_profile_guard(self, run, who, fc_layer):
        conv = LayerSpec("c", "conv", 2, 3, 3, 1, 1, 0, 4)
        fc = LayerSpec("f", "fc", 2, 3, 3, 1, 1, 0, 4)
        bank = random_sparse_filters(conv, 1.0, 0)
        stream = _conv_stream(bank) if fc_layer else _fc_stream(bank)
        with pytest.raises(ValueError, match=f"^{who} needs a conv layer "
                                             "and a conv stream$"):
            run(fc if fc_layer else conv, stream, np.zeros((2, 3, 3)))

    def test_stream_layer_mismatch(self):
        layer = LayerSpec("m", "conv", 2, 6, 6, 3, 1, 0, 4)
        other = LayerSpec("o", "conv", 3, 6, 6, 3, 1, 0, 4)
        bank = random_sparse_filters(other, 1.0, 0)
        with pytest.raises(ValueError, match="match"):
            run_conv(_conv_stream(bank), np.zeros((2, 6, 6)), layer)


_BUFFER_LAYER = LayerSpec("u", "conv", 2, 6, 6, 3, 1, 1, 4)


@pytest.mark.parametrize("call, error", [
    (lambda bank, x: dense_conv(x, bank, _BUFFER_LAYER), None),
    (lambda bank, x: dense_conv(x, bank[:, :1], _BUFFER_LAYER),
     "do not match"),
    (lambda bank, x: run_conv(_conv_stream(bank), x, _BUFFER_LAYER), None),
    (lambda bank, x: run_conv(_conv_stream(bank[:, :1]), x, _BUFFER_LAYER),
     "does not match"),
], ids=["dense_conv", "dense_conv-wrong-bank", "run_conv",
        "run_conv-mismatched-stream"])
def test_ufunc_buffer_restored(call, error):
    # the oracle and the engine shrink numpy's ufunc buffer while they
    # run; it must be back when they return, and when they raise
    bank = random_sparse_filters(_BUFFER_LAYER, 0.5, 90)
    x = _rand_input((2, 6, 6), 91)
    before = np.getbufsize()
    assert before != 128
    with (pytest.raises(ValueError, match=error) if error
          else contextlib.nullcontext()):
        call(bank, x)
    assert np.getbufsize() == before


class TestRunLayerBatched:
    def test_full_batch_equals_single_run(self):
        layer = LayerSpec("f", "conv", 3, 8, 8, 3, 1, 1, 8)
        bank = random_sparse_filters(layer, 0.5, 50)
        x = _rand_input((3, 8, 8), 51)
        whole, t_whole = run_conv(_conv_stream(bank), x, layer)
        batched, t_batched = run_layer_batched(bank, x, layer, 8)
        assert _same_bytes(whole, batched)
        assert vars(t_whole) == vars(t_batched)

    def test_ceiling_split_shapes(self):
        layer = LayerSpec("c", "conv", 2, 6, 6, 3, 1, 0, 8)
        bank = random_sparse_filters(layer, 1.0, 60)
        x = _rand_input((2, 6, 6), 61)
        out, _ = run_layer_batched(bank, x, layer, 3)  # batches of 3, 3, 2
        assert out.shape == (8, 4, 4)

    @pytest.mark.parametrize("batch", [1, 3, 5, 8])
    def test_batch_invariance_bitwise(self, batch):
        layer = LayerSpec("i", "conv", 3, 10, 10, 3, 1, 1, 8)
        bank = random_sparse_filters(layer, 0.5, 21)
        x = _rand_input((3, 10, 10), 22)
        out, _ = run_layer_batched(bank, x, layer, batch)
        assert _same_bytes(out, dense_conv(x, bank, layer))

    def test_single_filter_batches_fc(self):
        layer = LayerSpec("1", "fc", 2, 3, 3, 1, 1, 0, 7)
        bank = random_sparse_filters(layer, 0.6, 70)
        x = _rand_input((2, 3, 3), 71)
        out, _ = run_layer_batched(bank, x, layer, 1)
        assert _same_bytes(out, dense_fc(x, bank, layer))

    @pytest.mark.parametrize("kind,oracle,shape", [
        ("conv", dense_conv, (0, 3, 3)), ("fc", dense_fc, (0, 1, 1))])
    def test_empty_bank(self, kind, oracle, shape):
        layer = LayerSpec("a", kind, 2, 5, 5, 3, 1, 0, 4)
        bank = random_sparse_filters(layer, 1.0, 80)[:0]
        x = _rand_input((2, 5, 5), 81)
        out, trace = run_layer_batched(bank, x, layer, 4)
        assert out.shape == oracle(x, bank, layer).shape == shape
        assert out.dtype == np.float32
        assert vars(trace) == vars(TraceCounters())

    def test_batch_size_validated(self):
        layer = LayerSpec("v", "conv", 1, 4, 4, 3, 1, 0, 2)
        bank = random_sparse_filters(layer, 1.0, 0)
        with pytest.raises(ValueError, match="batch_size"):
            run_layer_batched(bank, np.zeros((1, 4, 4)), layer, 0)


class TestTraceCounters:
    def test_addition(self):
        from csfsim import TraceCounters
        a = TraceCounters(macs_executed=1, weight_loads=1, index_loads=1,
                          feature_loads=2, pointer_loads=2, simd_instructions=3)
        b = TraceCounters(macs_executed=10, weight_loads=10, index_loads=10,
                          feature_loads=20, pointer_loads=20,
                          simd_instructions=30)
        a += b
        assert vars(a) == dict(macs_executed=11, weight_loads=11,
                               index_loads=11, feature_loads=22,
                               pointer_loads=22, simd_instructions=33)
        assert b.macs_executed == 10


# (channels per block, tile rows) of each conv layer's run_conv plan, in
# 64-filter stacks and in one whole-layer stack, at d0.1: recorded from
# the engine that sized tiles by max(filters + 1, taps) and blocks by
# max(filters, taps) floats per pixel. The one rule keeps every plan of
# the bundled networks; on BIG it grows the tiles from 31 to 32 rows
# (64 filters x 32 rows x 64 pixels fill the budget, the spare register
# row past it)
_PLANS = [
    ("lenet", "CONV1", [(1, 24), (1, 24)]),
    ("lenet", "CONV2", [(20, 8), (20, 8)]),
    ("alexnet", "CONV1", [(1, 19), (1, 19)]),
    ("alexnet", "CONV2", [(2, 27), (1, 18)]),
    ("alexnet", "CONV3", [(12, 13), (2, 13)]),
    ("alexnet", "CONV4", [(12, 13), (2, 13)]),
    ("alexnet", "CONV5", [(12, 13), (3, 13)]),
    ("vgg16", "CONV1-1", [(1, 9), (1, 9)]),
    ("vgg16", "CONV1-2", [(1, 9), (1, 9)]),
    ("vgg16", "CONV2-1", [(1, 18), (1, 9)]),
    ("vgg16", "CONV2-2", [(1, 18), (1, 9)]),
    ("vgg16", "CONV3-1", [(1, 36), (1, 9)]),
    ("vgg16", "CONV3-2", [(1, 36), (1, 9)]),
    ("vgg16", "CONV3-3", [(1, 36), (1, 9)]),
    ("vgg16", "CONV4-1", [(2, 28), (1, 9)]),
    ("vgg16", "CONV4-2", [(2, 28), (1, 9)]),
    ("vgg16", "CONV4-3", [(2, 28), (1, 9)]),
    ("vgg16", "CONV5-1", [(10, 14), (1, 14)]),
    ("vgg16", "CONV5-2", [(10, 14), (1, 14)]),
    ("vgg16", "CONV5-3", [(10, 14), (1, 14)]),
    ("big.cfg", "BIG", [(1, 32), (1, 32)]),
    ("big.cfg", "BIG160", [(1, 12), (1, 12)]),
    ("big.cfg", "BIG224", [(1, 9), (1, 9)]),
    ("big.cfg", "K13", [(4, 1), (4, 1)]),
    ("big.cfg", "GROUPS", [(3, 23), (1, 11)]),
    ("big.cfg", "WIDE", [(1, 3), (1, 3)]),
]


def _real_layer(config, name):
    """Layer `name` of a bundled config, or of a config beside this file."""
    path = Path(__file__).with_name(config) if "." in config else config
    layer, = [layer for layer in _load_config(str(path))
              if layer.name == name]
    return layer


class _FirstCopy(Exception):
    """Stops a run at its first window copy, with that block's plan."""


@pytest.mark.parametrize("config,name,plans", _PLANS,
                         ids=[f"{c}-{n}" for c, n, _ in _PLANS])
def test_plan_on_real_layers(monkeypatch, config, name, plans):
    layer = _real_layer(config, name)

    def first_copy(padded, chans, _, out):
        raise _FirstCopy(out.shape[1], out.shape[-2])
    monkeypatch.setattr(engine, "_copy_windows", first_copy)
    bank = random_sparse_filters(layer, 0.1, 0)
    features = np.zeros((layer.channels, layer.height, layer.width),
                        np.float32)
    seen = []
    for stack in (64, layer.filters):
        with pytest.raises(_FirstCopy) as stop:
            run_layer_batched(bank, features, layer, stack)
        seen.append(stop.value.args)
    assert seen == plans


@pytest.mark.parametrize("config,name", [(c, n) for c, n, _ in _PLANS],
                         ids=[f"{c}-{n}" for c, n, _ in _PLANS])
def test_counters_match_the_grouping_plan(config, name):
    # in the filter-grouping plan's stacks, the plan's feature traffic is
    # the engine's counter in other units: per stack the engine fetches
    # C*k*k*out_h*out_w features, one per position and output pixel,
    # where the plan loads the C*H*W input once; and one instruction per
    # channel and output pixel gives the stack count. Neither counter
    # depends on the weights, so an all-zero bank runs no products
    layer = _real_layer(config, name)
    plan = plan_filter_grouping(layer, 200704)
    out_w, out_h = output_shape(layer)
    _, trace = run_layer_batched(
        np.zeros(layer.bank_shape, np.float32),
        np.zeros((layer.channels, layer.height, layer.width), np.float32),
        layer, plan.batch_size)
    assert (trace.feature_loads * layer.height * layer.width
            == layer.kernel ** 2 * out_h * out_w * plan.total_features_loaded)
    assert (trace.simd_instructions // (layer.channels * out_h * out_w)
            == plan.batches)
