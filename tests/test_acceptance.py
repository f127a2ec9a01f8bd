"""Acceptance gate: one test per headline guarantee, frozen references.

Each test prints a single PASS line on success; a failure reads as the
criterion's name in the pytest report.
"""

import csv
import io
import struct

import numpy as np

from csfsim import (LayerSpec, decode_csf, dense_conv, dense_fc,
                    deserialize_csf, efficiency_per_pe, encode_csf,
                    random_sparse_filters, run_layer_batched, serialize_csf,
                    stack_filters)
from csfsim.cli import main

# frozen reference rows: layer name -> exact dense multiply-accumulate count
ALEXNET_MACS = {
    "CONV1": 105_415_200,
    "CONV2": 447_897_600,
    "CONV3": 149_520_384,
    "CONV4": 224_280_576,
    "CONV5": 149_520_384,
}

# layer name -> millions of MACs as printed, 4 decimal places
VGG16_MACS_MILLIONS = {
    "CONV1-1": 86.7041,
    "CONV1-2": 1849.6881,
    "CONV2-1": 924.8440,
    "CONV2-2": 1849.6881,
    "CONV3-1": 924.8440,
    "CONV3-2": 1849.6881,
    "CONV3-3": 1849.6881,
    "CONV4-1": 924.8440,
    "CONV4-2": 1849.6881,
    "CONV4-3": 1849.6881,
    "CONV5-1": 462.4220,
    "CONV5-2": 462.4220,
    "CONV5-3": 462.4220,
}

# layer name -> (grid, load times, filter weights, total weights loaded)
# for a 100352-element output buffer and 14x14 output tiles
VGG16_DIVISION_ROWS = {
    "CONV1-1": ("16x16", 256, 1_728, 442_368),
    "CONV1-2": ("16x16", 256, 36_864, 9_437_184),
    "CONV2-1": ("8x8", 64, 73_728, 4_718_592),
    "CONV2-2": ("8x8", 64, 147_456, 9_437_184),
    "CONV3-1": ("4x4", 16, 294_912, 4_718_592),
    "CONV3-2": ("4x4", 16, 589_824, 9_437_184),
    "CONV3-3": ("4x4", 16, 589_824, 9_437_184),
    "CONV4-1": ("2x2", 4, 1_179_648, 4_718_592),
    "CONV4-2": ("2x2", 4, 2_359_296, 9_437_184),
    "CONV4-3": ("2x2", 4, 2_359_296, 9_437_184),
    "CONV5-1": ("1x1", 1, 2_359_296, 2_359_296),
    "CONV5-2": ("1x1", 1, 2_359_296, 2_359_296),
    "CONV5-3": ("1x1", 1, 2_359_296, 2_359_296),
}
VGG16_DIVISION_SUMS = (14_710_464, 78_299_136)

# layer name -> (batch size, batches, features, total features loaded) for a
# 200704-element output buffer; the CONV4-1 row is the batching formula's
# value, which the published figures contradict (they list 1 / 200704 even
# though 512 filters at batch size 256 need two passes)
VGG16_GROUPING_ROWS = {
    "CONV1-1": (4, 16, 150_528, 2_408_448),
    "CONV1-2": (4, 16, 3_211_264, 51_380_224),
    "CONV2-1": (16, 8, 802_816, 6_422_528),
    "CONV2-2": (16, 8, 1_605_632, 12_845_056),
    "CONV3-1": (64, 4, 401_408, 1_605_632),
    "CONV3-2": (64, 4, 802_816, 3_211_264),
    "CONV3-3": (64, 4, 802_816, 3_211_264),
    "CONV4-1": (256, 2, 200_704, 401_408),
    "CONV4-2": (256, 2, 401_408, 802_816),
    "CONV4-3": (256, 2, 401_408, 802_816),
    "CONV5-1": (512, 1, 100_352, 100_352),
    "CONV5-2": (512, 1, 100_352, 100_352),
    "CONV5-3": (512, 1, 100_352, 100_352),
}

# the published comparison design's efficiency divisor: its 168 processing
# elements (ours is normalized by 4)
BASELINE_DIVISOR = 168

# published AlexNet efficiency rows:
# (name, macs_millions, runtime_ms, efficiency,
#        baseline macs_millions, baseline ms, baseline efficiency, gain)
# The CONV5 efficiency is printed as 0.3077 in the source table, but that
# value is internally inconsistent: the row's own gain column (5.2) and the
# formula both give 0.2401, so 0.2401 is frozen here.
ALEXNET_EFFICIENCY_ROWS = [
    ("CONV1", 105.4152, 441.9150, 0.0596, 421.6608, 20.9, 0.1201, 0.5),
    ("CONV2", 447.8976, 498.9550, 0.2244, 716.4638, 41.9, 0.1018, 2.2),
    ("CONV3", 149.5204, 156.2320, 0.2393, 241.1512, 23.6, 0.0608, 3.9),
    ("CONV4", 224.2806, 182.2490, 0.3077, 118.1646, 18.4, 0.0382, 8.0),
    ("CONV5", 149.5204, 155.6620, 0.2401, 81.6753, 10.5, 0.0463, 5.2),
]

VGG16_EFFICIENCY_ROWS = [
    ("CONV1-1", 86.7, 605.9, 0.0358, 258.5, 76.2, 0.0202, 1.8),
    ("CONV1-2", 1849.7, 6531.1, 0.0708, 2910.2, 910.3, 0.0190, 3.7),
    ("CONV2-1", 924.8, 3678.0, 0.0629, 2133.0, 470.3, 0.0270, 2.3),
    ("CONV2-2", 1849.7, 6014.1, 0.0769, 3371.8, 894.3, 0.0224, 3.4),
    ("CONV3-1", 924.8, 2655.4, 0.0871, 1660.6, 241.1, 0.0410, 2.1),
    ("CONV3-2", 1849.7, 4141.1, 0.1117, 2538.8, 460.9, 0.0328, 3.4),
    ("CONV3-3", 1849.7, 4091.1, 0.1130, 2323.9, 457.7, 0.0302, 3.7),
    ("CONV4-1", 924.8, 1977.2, 0.1169, 1109.0, 135.8, 0.0486, 2.4),
    ("CONV4-2", 1849.7, 2689.9, 0.1719, 1503.0, 254.8, 0.0351, 4.9),
    ("CONV4-3", 1849.7, 2586.6, 0.1788, 973.4, 246.3, 0.0235, 7.6),
    ("CONV5-1", 462.4, 596.5, 0.1938, 333.3, 54.3, 0.0365, 5.3),
    ("CONV5-2", 462.4, 548.9, 0.2106, 218.4, 53.7, 0.0242, 8.7),
    ("CONV5-3", 462.4, 479.8, 0.2410, 198.5, 53.7, 0.0220, 11.0),
]


def _cli_csv(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return list(csv.reader(io.StringIO(out)))


def _rand_input(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 2.0 - 1.0).astype(np.float32)


def test_mac_reproduction(capsys):
    rows = _cli_csv(capsys, "macs", "alexnet", "--csv")
    got = {name: int(macs) for name, _, macs, _ in rows[1:]}
    assert got == ALEXNET_MACS

    rows = _cli_csv(capsys, "macs", "vgg16", "--csv")
    got = {name: round(int(macs) / 1e6, 4) for name, _, macs, _ in rows[1:]}
    assert got == VGG16_MACS_MILLIONS
    print("PASS: MAC counts reproduce all 5 + 13 reference values exactly")


def test_division_cost_reproduction(capsys):
    rows = _cli_csv(capsys, "plan", "vgg16", "--div-budget", "100352",
                    "--tile", "14", "--csv")
    assert len(rows) == 14  # header + 13 layers
    got = {r[0]: (f"{r[2]}x{r[3]}", int(r[4]), int(r[5]), int(r[6]))
           for r in rows[1:]}
    assert got == VGG16_DIVISION_ROWS
    sums = (sum(v[2] for v in got.values()), sum(v[3] for v in got.values()))
    assert sums == VGG16_DIVISION_SUMS
    print("PASS: feature-division table reproduces all 13 rows and the "
          f"sums {sums[0]} / {sums[1]}")


def test_grouping_cost_reproduction(capsys):
    rows = _cli_csv(capsys, "plan", "vgg16", "--grp-budget", "200704",
                    "--csv")
    got = {r[0]: (int(r[2]), int(r[3]), int(r[4]), int(r[5]))
           for r in rows[1:]}
    assert got == VGG16_GROUPING_ROWS
    notes = {r[0]: r[6] for r in rows[1:]}
    assert "inconsistent" in notes["CONV4-1"]
    assert all(not note for name, note in notes.items() if name != "CONV4-1")
    print("PASS: filter-grouping table reproduces 12 rows exactly and "
          "flags the CONV4-1 formula/published conflict")


def test_efficiency_improvement_reproduction():
    for table in (ALEXNET_EFFICIENCY_ROWS, VGG16_EFFICIENCY_ROWS):
        for name, macs, ms, eff, base_macs, base_ms, base_eff, gain in table:
            ours = efficiency_per_pe(macs, ms, 4)
            base = efficiency_per_pe(base_macs, base_ms, BASELINE_DIVISOR)
            assert abs(ours - eff) <= 1e-4, name
            assert abs(base - base_eff) <= 1e-4, name
            assert abs(ours / base - gain) <= 0.1, name
    print("PASS: every efficiency value within 0.0001 and every "
          "improvement ratio within 0.1 (including 8.0 and 11.0)")


def test_oracle_equivalence():
    cases = 0
    batch_options = (1, 8, 512)

    # conv sweep across kernel, stride, padding, density, batch size
    for k in (1, 3, 5, 11):
        for s in (1, 2, 4):
            for p in (0, 1, 2):
                for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                    size = max(k, 12)
                    layer = LayerSpec(f"c{k}{s}{p}", "conv", 3, size,
                                      size + 3, k, s, p, 9)
                    seed = 100_000 + cases
                    bank = random_sparse_filters(layer, density, seed)
                    x = _rand_input((3, size, size + 3), seed + 1)
                    batch = min(batch_options[cases % 3], layer.filters)
                    got, trace = run_layer_batched(bank, x, layer, batch)
                    want = dense_conv(x, bank, layer)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), (k, s, p, density)
                    assert trace.weight_loads == trace.index_loads \
                        == trace.macs_executed
                    cases += 1

    # fc sweep
    for shape in ((2, 4, 4), (1, 1, 37), (5, 3, 2)):
        for density in (0.0, 0.1, 0.5, 1.0):
            for batch in batch_options:
                layer = LayerSpec("f", "fc", *shape, 1, 1, 0, 11)
                seed = 200_000 + cases
                bank = random_sparse_filters(layer, density, seed)
                x = _rand_input(shape, seed + 1)
                got, _ = run_layer_batched(bank, x, layer,
                                           min(batch, layer.filters))
                assert np.array_equal(got, dense_fc(x, bank, layer))
                cases += 1

    assert cases >= 200
    print(f"PASS: engine output equals the dense oracles bit-exactly on "
          f"{cases} randomized instances")


def test_codec_soundness():
    roundtrips = 0
    for seed in range(110):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 20))
        c = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        layer = LayerSpec("r", "conv", c, k, k, k, 1, 0, m)
        bank = random_sparse_filters(layer, float(rng.random()), seed + 5000)
        stacked = stack_filters(bank, 0, m)
        profile = "conv" if seed % 2 else "fc"
        stream = encode_csf(stacked, profile)
        decoded = decode_csf(stream)
        if profile == "conv":
            assert np.array_equal(decoded, stacked)
        else:
            assert np.array_equal(decoded, stacked.reshape(-1, m))
        assert deserialize_csf(serialize_csf(stream)) == stream
        assert stream.total_nnz == np.count_nonzero(stacked)
        roundtrips += 1
    assert roundtrips >= 100

    # golden bytes for the all-zero two-filter single-position stream,
    # hand-assembled from the layout table
    stream = encode_csf(np.zeros((1, 1, 1, 2), np.float32), "conv")
    want = (b"CSF1" + struct.pack("<HBB", 1, 1, 0)
            + struct.pack("<IIII", 2, 1, 1, 1) + struct.pack("<H", 0))
    assert serialize_csf(stream) == want

    # trace identity: executed multiplies = loaded weights = nonzeros visited
    layer = LayerSpec("t", "conv", 3, 8, 8, 3, 1, 1, 8)
    bank = random_sparse_filters(layer, 0.3, 42)
    x = _rand_input((3, 8, 8), 43)
    _, trace = run_layer_batched(bank, x, layer, 8)
    assert trace.macs_executed == trace.weight_loads
    assert trace.macs_executed == np.count_nonzero(bank) * 8 * 8
    print(f"PASS: codec roundtrip identity over {roundtrips} streams, "
          "golden bytes match, trace counters consistent")


def test_sparsity_scaling():
    layer = LayerSpec("s", "conv", 8, 16, 16, 3, 1, 1, 32)
    densities = np.arange(0.1, 1.01, 0.1)
    macs = []
    for density in densities:
        bank = random_sparse_filters(layer, float(density), 777)
        x = np.ones((8, 16, 16), np.float32)
        _, trace = run_layer_batched(bank, x, layer, 32)
        macs.append(trace.macs_executed)
    macs = np.asarray(macs, dtype=float)
    slope, intercept = np.polyfit(densities, macs, 1)
    predicted = slope * densities + intercept
    residual = np.sum((macs - predicted) ** 2)
    total = np.sum((macs - macs.mean()) ** 2)
    r_squared = 1.0 - residual / total
    assert r_squared > 0.99
    assert slope > 0
    print(f"PASS: executed multiply count scales linearly with density "
          f"(R^2 = {r_squared:.5f})")
