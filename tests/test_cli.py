"""Command line surface: files, subcommands, exit codes, determinism."""

import csv
import dataclasses
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csfsim
from csfsim import (CsfStream, LayerSpec, deserialize_csf, quantize_shift,
                    random_sparse_filters, serialize_csf)
from csfsim.cli import (_build_parser, _first_mismatch, main,
                        read_weight_bank, write_weight_bank)
from csfsim.tiling import DivisionPlan, GroupingPlan


# Complete outputs, pinned byte for byte: the note column's right
# justification, infeasible rows, totals rows and "; "-joined notes.
REPORT_LENET = """\
arithmetic and predicted timing (8 processing elements at 299.97 MHz)
layer  kind     macs  millions  predicted ms  efficiency
CONV1  conv   288000    0.2880        0.1411      0.5102
CONV2  conv  1600000    1.6000        0.7137      0.5605
FC1      fc   400000    0.4000        0.1960      0.5102
FC2      fc     5000    0.0050        0.0204      0.0612

feature division (output buffer budget 100352, tile 14)
layer  grid  load times  filter weights  total weights loaded                                                      note
CONV1   2x2           4             500                  2000
CONV2   1x1           1           25000                 25000
FC1       -           -               -                     -  infeasible: FC1: feature division applies to conv layers
FC2       -           -               -                     -  infeasible: FC2: feature division applies to conv layers
total                             25500                 27000

filter grouping (output buffer budget 200704)
layer  batch size  batches  features  total features loaded  note
CONV1          20        1       784                    784
CONV2          50        1      2880                   2880
FC1           500        1       800                    800
FC2            10        1       500                    500
total                           4964                   4964
"""

REPORT_LENET_CSV = """\
layer,kind,macs,macs_millions,predicted_ms,efficiency,grid_h,grid_w,load_times,filter_weights,total_weights_loaded,batch_size,batches,features,total_features_loaded,note
CONV1,conv,288000,0.2880,0.1411,0.5102,2,2,4,500,2000,20,1,784,784,
CONV2,conv,1600000,1.6000,0.7137,0.5605,1,1,1,25000,25000,50,1,2880,2880,
FC1,fc,400000,0.4000,0.1960,0.5102,,,,,,500,1,800,800,infeasible: FC1: feature division applies to conv layers
FC2,fc,5000,0.0050,0.0204,0.0612,,,,,,10,1,500,500,infeasible: FC2: feature division applies to conv layers
"""

# the paper's two networks at the default budgets: predicted ms and
# efficiency of every layer
REPORT_ALEXNET_CSV = """\
layer,kind,macs,macs_millions,predicted_ms,efficiency,grid_h,grid_w,load_times,filter_weights,total_weights_loaded,batch_size,batches,features,total_features_loaded,note
CONV1,conv,105415200,105.4152,44.2602,0.5954,4,4,16,34848,557568,66,2,154587,309174,
CONV2,conv,447897600,447.8976,189.2090,0.5918,2,2,4,614400,2457600,256,1,69984,69984,
CONV3,conv,149520384,149.5204,63.8929,0.5850,1,1,1,884736,884736,384,1,43264,43264,
CONV4,conv,224280576,224.2806,95.8393,0.5850,1,1,1,1327104,1327104,384,1,64896,64896,
CONV5,conv,149520384,149.5204,64.6861,0.5779,1,1,1,884736,884736,256,1,64896,64896,
"""

REPORT_VGG16_CSV = """\
layer,kind,macs,macs_millions,predicted_ms,efficiency,grid_h,grid_w,load_times,filter_weights,total_weights_loaded,batch_size,batches,features,total_features_loaded,note
CONV1-1,conv,86704128,86.7041,41.6502,0.5204,16,16,256,1728,442368,4,16,150528,2408448,
CONV1-2,conv,1849688064,1849.6881,888.5386,0.5204,16,16,256,36864,9437184,4,16,3211264,51380224,
CONV2-1,conv,924844032,924.8440,414.8297,0.5574,8,8,64,73728,4718592,16,8,802816,6422528,
CONV2-2,conv,1849688064,1849.6881,829.6595,0.5574,8,8,64,147456,9437184,16,8,1605632,12845056,
CONV3-1,conv,924844032,924.8440,400.1100,0.5779,4,4,16,294912,4718592,64,4,401408,1605632,
CONV3-2,conv,1849688064,1849.6881,800.2200,0.5779,4,4,16,589824,9437184,64,4,802816,3211264,
CONV3-3,conv,1849688064,1849.6881,800.2200,0.5779,4,4,16,589824,9437184,64,4,802816,3211264,
CONV4-1,conv,924844032,924.8440,392.7501,0.5887,2,2,4,1179648,4718592,256,2,200704,401408,"published figures list 1 batches / 200704 features loaded, inconsistent with 512 filters at batch size 256"
CONV4-2,conv,1849688064,1849.6881,785.5002,0.5887,2,2,4,2359296,9437184,256,2,401408,802816,
CONV4-3,conv,1849688064,1849.6881,785.5002,0.5887,2,2,4,2359296,9437184,256,2,401408,802816,
CONV5-1,conv,462422016,462.4220,196.3751,0.5887,1,1,1,2359296,2359296,512,1,100352,100352,
CONV5-2,conv,462422016,462.4220,196.3751,0.5887,1,1,1,2359296,2359296,512,1,100352,100352,
CONV5-3,conv,462422016,462.4220,196.3751,0.5887,1,1,1,2359296,2359296,512,1,100352,100352,
"""

PLAN_LENET_SMALL_BUDGETS_CSV = """\
layer,kind,grid_h,grid_w,load_times,filter_weights,total_weights_loaded,batch_size,batches,features,total_features_loaded,note
CONV1,conv,,,,,,,,,,"infeasible: CONV1: 14x14 output tiles for 20 filters need 3920 elements, budget is 3000; infeasible: CONV1: budget 500 cannot hold one 24x24 output plane"
CONV2,conv,,,,,,7,8,2880,23040,"infeasible: CONV2: 8x8 output tiles for 50 filters need 3200 elements, budget is 3000"
FC1,fc,,,,,,500,1,800,800,infeasible: FC1: feature division applies to conv layers
FC2,fc,,,,,,10,1,500,500,infeasible: FC2: feature division applies to conv layers
"""

PLAN_ALEXNET_BUDGET_MAX = """\
feature division (output buffer budget 100352, largest tile in budget)
layer  grid  load times  filter weights  total weights loaded  note
CONV1   2x2           4           34848                139392
CONV2   2x2           4          614400               2457600
CONV3   1x1           1          884736                884736
CONV4   1x1           1         1327104               1327104
CONV5   1x1           1          884736                884736
total                           3745824               5693568

filter grouping (output buffer budget 200704)
layer  batch size  batches  features  total features loaded  note
CONV1          66        2    154587                 309174
CONV2         256        1     69984                  69984
CONV3         384        1     43264                  43264
CONV4         384        1     64896                  64896
CONV5         256        1     64896                  64896
total                         397627                 552214
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bank_file(tmp_path):
    layer = LayerSpec("b", "conv", 3, 8, 8, 3, 1, 1, 10)
    bank = random_sparse_filters(layer, 0.4, 3)
    path = tmp_path / "bank.bin"
    write_weight_bank(path, bank)
    return path, bank


class TestWeightBankIo:
    def test_roundtrip(self, bank_file):
        path, bank = bank_file
        assert np.array_equal(read_weight_bank(path), bank)

    def test_loaded_bank_is_read_only(self, bank_file):
        path, _ = bank_file
        with pytest.raises(ValueError, match="read-only"):
            read_weight_bank(path)[0, 0, 0, 0] = 1.0

    def test_header_contents(self, bank_file):
        path, _ = bank_file
        header = path.read_bytes()[:16]
        assert struct.unpack("<IIII", header) == (10, 3, 3, 3)

    def test_kernel_extent_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<IIII", 1, 1, 2, 3) + b"\x00" * 24)
        with pytest.raises(ValueError, match="kernel extents"):
            read_weight_bank(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<IIII", 2, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValueError, match="payload"):
            read_weight_bank(path)

    def test_zero_extent(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(struct.pack("<IIII", 0, 1, 1, 1))
        with pytest.raises(ValueError, match="zero extent"):
            read_weight_bank(path)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (1, 1, 2, 3)],
                             ids=["3-D", "non-square"])
    def test_write_refuses_non_bank_shape(self, tmp_path, shape):
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match=r"^bank shape \(.*\) is not "
                                             r"\(filters, channels, k, k\)$"):
            write_weight_bank(path, np.zeros(shape, np.float32))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 1, 1, 1), (1, 0, 1, 1),
                                       (1, 1, 0, 0), (0, 0, 0, 0)])
    def test_write_refuses_zero_extent(self, tmp_path, shape):
        # the reader rejects such a header, so the writer must not make one
        path = tmp_path / "zero.bin"
        with pytest.raises(ValueError, match="zero extent in header"):
            write_weight_bank(path, np.zeros(shape, np.float32))
        assert not path.exists()


class TestEncodeDecode:
    def test_file_roundtrip(self, capsys, tmp_path, bank_file):
        path, bank = bank_file
        stream_path = tmp_path / "bank.csf"
        out_path = tmp_path / "back.bin"
        code, out, _ = run(capsys, "encode", str(path), "-o", str(stream_path))
        assert code == 0 and "nonzeros" in out
        code, out, _ = run(capsys, "decode", str(stream_path),
                           "-o", str(out_path))
        assert code == 0
        assert "profile   conv" in out
        assert np.array_equal(read_weight_bank(out_path), bank)
        assert out_path.read_bytes() == path.read_bytes()

    def test_quantize_flag(self, capsys, tmp_path, bank_file):
        path, bank = bank_file
        stream_path = tmp_path / "q.csf"
        code, _, _ = run(capsys, "encode", str(path), "-o", str(stream_path),
                         "--quantize-shift", "-6", "2")
        assert code == 0
        stream = deserialize_csf(stream_path.read_bytes())
        assert stream.quantized
        weights = set(stream.weights.tolist())
        allowed = {s * 2.0 ** e for e in range(-6, 3) for s in (1, -1)}
        assert weights.issubset(allowed)

    def test_fc_profile(self, capsys, tmp_path, bank_file):
        path, bank = bank_file
        stream_path = tmp_path / "fc.csf"
        code, _, _ = run(capsys, "encode", str(path), "-o", str(stream_path),
                         "--profile", "fc")
        assert code == 0
        stream = deserialize_csf(stream_path.read_bytes())
        assert stream.profile == "fc"
        assert stream.position_count == 3 * 3 * 3

    def test_decode_corrupt_file(self, capsys, tmp_path):
        path = tmp_path / "junk.csf"
        path.write_bytes(b"not a stream")
        code, _, err = run(capsys, "decode", str(path))
        assert code == 2 and "error" in err

    def test_decode_stored_zero_weight(self, capsys, tmp_path):
        # 2 filters, 1 channel, kernel 1: one entry, filter 1, weight -0.0
        path = tmp_path / "zero.csf"
        path.write_bytes(b"CSF1" + struct.pack("<HBBIIIIHHf", 1, 1, 0, 2, 1,
                                               1, 1, 1, 1, -0.0))
        code, out, err = run(capsys, "decode", str(path))
        assert (code, out, err) == (2, "", "error: zero weight at position 0\n")

    def test_decode_out_of_memory_is_input_error(self, capsys, tmp_path,
                                                 bank_file, monkeypatch):
        path, _ = bank_file
        stream_path = tmp_path / "bank.csf"
        assert run(capsys, "encode", str(path), "-o", str(stream_path))[0] == 0

        def no_memory(stream):
            raise MemoryError("Unable to allocate 144. GiB")

        # a real allocation of that size may succeed under overcommit
        monkeypatch.setattr(csfsim.cli, "decode_csf", no_memory)
        out_path = tmp_path / "back.bin"
        code, _, err = run(capsys, "decode", str(stream_path),
                           "-o", str(out_path))
        assert code == 2
        assert err == "error: Unable to allocate 144. GiB\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("profile,filters,channels,kernel", [
        ("conv", 0, 1, 1), ("conv", 2, 0, 3), ("conv", 2, 1, 0),
        ("fc", 0, 4, 1), ("fc", 3, 0, 1)])
    def test_decode_zero_extent_stream_writes_no_bank(
            self, capsys, tmp_path, profile, filters, channels, kernel):
        positions = channels * (kernel ** 2 if profile == "conv" else 1)
        stream = CsfStream(profile, filters, channels, kernel,
                           counts=[0] * positions, rel=[], weights=[])
        path = tmp_path / "z.csf"
        path.write_bytes(serialize_csf(stream))
        out_path = tmp_path / "z.bank"
        code, out, err = run(capsys, "decode", str(path), "-o", str(out_path))
        assert code == 2
        assert f"filters   {filters}" in out
        assert err.startswith("error: ") and "zero extent in header" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_non_finite_bank(self, capsys, tmp_path, bank_file, bad):
        path, bank = bank_file
        bank[4, 1, 2, 0] = bad
        write_weight_bank(path, bank)
        out_path = tmp_path / "bad.csf"
        code, _, err = run(capsys, "encode", str(path), "-o", str(out_path))
        assert code == 2 and "non-finite" in err
        assert not out_path.exists()

    def test_quantize_rejects_infinite_bank(self, capsys, tmp_path,
                                            bank_file):
        path, bank = bank_file
        bank[4, 1, 2, 0] = np.inf
        write_weight_bank(path, bank)
        out_path = tmp_path / "q.csf"
        code, _, err = run(capsys, "encode", str(path), "-o", str(out_path),
                           "--quantize-shift", "-8", "8")
        assert code == 2
        assert err.startswith("error: ") and "non-finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("exps", [("200", "300"), ("-300", "-200")])
    def test_quantize_exponents_outside_float32(self, capsys, tmp_path,
                                                bank_file, exps):
        path, _ = bank_file
        out_path = tmp_path / "q.csf"
        code, _, err = run(capsys, "encode", str(path), "-o", str(out_path),
                           "--quantize-shift", *exps)
        assert code == 2 and "float32" in err
        assert not out_path.exists()

    def test_quantize_empty_exponent_range(self, capsys, tmp_path, bank_file):
        path, _ = bank_file
        code, _, err = run(capsys, "encode", str(path), "-o",
                           str(tmp_path / "q.csf"), "--quantize-shift", "3", "2")
        assert code == 2 and "empty" in err

    def test_encode_bad_bank(self, capsys, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"short")
        code, _, err = run(capsys, "encode", str(path), "-o",
                           str(tmp_path / "x.csf"))
        assert code == 2 and "error" in err


class TestVerify:
    def test_all_layers_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "lenet", "--density", "0.3",
                           "--seed", "1")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out
        assert "4/4 layers passed" in out

    def test_corrupted_run_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "lenet", "--density", "0.3",
                           "--seed", "1", "--corrupt-layer", "CONV2")
        assert code == 1
        assert "CONV2: FAIL" in out
        assert out.count("PASS") == 3
        line = next(l for l in out.splitlines() if l.startswith("CONV2"))
        assert line.endswith(
            "macs; first mismatch at (filter 0, y 0, x 0): expected "
            "-1.79499805, actual -1.25941014, 4492837 ulp)")
        # both values are negative, so their ULP distance is the distance
        # between their bit patterns
        bits = np.array([-1.79499805, -1.25941014], np.float32).view(np.int32)
        assert abs(int(bits[0]) - int(bits[1])) == 4492837
        assert out.splitlines()[0] == (
            "CONV1: PASS (max abs deviation 0.000e+00, 91584 macs)")
        assert out.splitlines()[-1] == "3/4 layers passed"

    def test_sign_of_zero_fails(self, capsys, monkeypatch):
        # -0.0 == +0.0 holds, so only a byte comparison sees this defect
        real = csfsim.cli.run_layer_batched

        def negative_zero_at_origin(bank, features, layer, batch_size):
            out, trace = real(bank, features, layer, batch_size)
            if layer.name == "CONV1":
                out[0, 0, 0] = -0.0
            return out, trace

        monkeypatch.setattr(csfsim.cli, "run_layer_batched",
                            negative_zero_at_origin)
        code, out, _ = run(capsys, "verify", "lenet", "--density", "0")
        assert code == 1
        assert out.splitlines()[0] == (
            "CONV1: FAIL (max abs deviation 0.000e+00, 0 macs; first "
            "mismatch at (filter 0, y 0, x 0): expected 0, actual -0, 0 ulp)")
        assert out.splitlines()[-1] == "3/4 layers passed"

    def test_wrong_shaped_output_fails_that_layer(self, capsys, monkeypatch):
        real = csfsim.cli.run_layer_batched

        def drops_last_filter(bank, features, layer, batch_size):
            out, trace = real(bank, features, layer, batch_size)
            return (out[:-1] if layer.name == "CONV1" else out), trace

        monkeypatch.setattr(csfsim.cli, "run_layer_batched", drops_last_filter)
        code, out, err = run(capsys, "verify", "lenet", "--density", "0.3")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[0] == ("CONV1: FAIL (74304 macs; output shape "
                            "(19, 24, 24), expected (20, 24, 24))")
        assert all(": PASS (" in line for line in lines[1:4])
        assert lines[-1] == "3/4 layers passed"

    def test_first_mismatch_location_and_ulps(self):
        def where(expected, actual):
            return _first_mismatch(expected, actual, actual.view(np.uint32)
                                   != expected.view(np.uint32))

        expected = np.zeros((2, 3, 4), np.float32)
        actual = expected.copy()
        actual[1, 2, 3] = 5.0
        actual[1, 0, 2] = np.nextafter(np.float32(0), np.float32(-1))
        # the smallest negative subnormal is one step below zero
        assert where(expected, actual) == (
            "; first mismatch at (filter 1, y 0, x 2): expected 0, "
            "actual -1.40129846e-45, 1 ulp")
        one = np.ones((1, 1, 1), np.float32)
        assert where(
            one, np.nextafter(one, np.float32(2))).endswith(
            "expected 1, actual 1.00000012, 1 ulp")
        # across zero the distance counts the steps on both sides
        tiny = np.full((1, 1, 1), 2.8e-45, np.float32)
        assert where(tiny, -tiny).endswith("4 ulp")
        # a mask that marks a later element first names that element
        mask = np.zeros(expected.shape, bool)
        mask[1, 2, 3] = True
        assert _first_mismatch(expected, actual, mask).startswith(
            "; first mismatch at (filter 1, y 2, x 3): expected 0, actual 5,")

    def test_density_zero_trivially_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lenet", "--density", "0",
                           "--seed", "0")
        assert code == 0
        assert "deviation 0.000e+00" in out

    def test_config_without_layers_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: config {str(path)!r} has no layers to verify\n"


class TestMacs:
    def test_alexnet_exact_counts(self, capsys):
        code, out, _ = run(capsys, "macs", "alexnet")
        assert code == 0
        counts = [int(line.split()[2]) for line in out.splitlines()[1:6]]
        assert counts == [105_415_200, 447_897_600, 149_520_384,
                          224_280_576, 149_520_384]

    def test_csv_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "macs", "vgg16", "--csv")
        _, second, _ = run(capsys, "macs", "vgg16", "--csv")
        assert first == second
        rows = list(csv.reader(io.StringIO(first)))
        assert rows[0] == ["layer", "kind", "macs", "millions"]
        assert len(rows) == 14

    def test_empty_config(self, capsys, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        code, out, _ = run(capsys, "macs", str(path), "--csv")
        assert code == 0
        assert out.splitlines() == ["layer,kind,macs,millions"]

    def test_python_dash_m_runs_the_cli(self, capsys):
        # the package this suite imports, not whichever one is installed
        src = str(Path(csfsim.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "csfsim", "macs", "lenet"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        _, out, _ = run(capsys, "macs", "lenet")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out


class TestPlan:
    def test_requires_a_budget(self, capsys):
        code, _, err = run(capsys, "plan", "vgg16")
        assert code == 2 and "budget" in err

    def test_division_totals(self, capsys):
        code, out, _ = run(capsys, "plan", "vgg16",
                           "--div-budget", "100352", "--tile", "14")
        assert code == 0
        totals = out.splitlines()[-1].split()
        assert totals[:3] == ["total", "14710464", "78299136"]

    def test_grouping_note_column(self, capsys):
        code, out, _ = run(capsys, "plan", "vgg16", "--grp-budget", "200704")
        assert code == 0
        flagged = [l for l in out.splitlines() if "inconsistent" in l]
        assert len(flagged) == 1 and flagged[0].startswith("CONV4-1")

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "plan", "vgg16", "--div-budget", "100352",
                           "--grp-budget", "200704", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["layer", "kind", "grid_h", "grid_w", "load_times",
                           "filter_weights", "total_weights_loaded",
                           "batch_size", "batches", "features",
                           "total_features_loaded", "note"]
        assert rows[1][:7] == ["CONV1-1", "conv", "16", "16", "256", "1728",
                               "442368"]
        assert len(rows) == 14

    def test_csv_plan_columns_are_the_plan_fields(self, capsys):
        # a renamed plan field or csv column fails here
        _, out, _ = run(capsys, "plan", "lenet", "--div-budget", "100352",
                        "--grp-budget", "200704", "--csv")
        fields = [f.name for plan in (DivisionPlan, GroupingPlan)
                  for f in dataclasses.fields(plan) if f.name != "note"]
        assert out.splitlines()[0].split(",")[2:-1] == fields

    def test_budget_max_mode(self, capsys):
        code, out, _ = run(capsys, "plan", "vgg16", "--div-budget", "100352",
                           "--budget-max", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        # first layer: 64 filters in 100352 elements allows 39x39 tiles
        assert rows[1][2:5] == ["6", "6", "36"]

    def test_infeasible_rows_marked_not_fatal(self, capsys, tmp_path):
        path = tmp_path / "fc.cfg"
        path.write_text("[layer]\nname = F\ntype = fc\nin_channels = 2\n"
                        "in_height = 2\nin_width = 2\nfilters = 4\n")
        code, out, _ = run(capsys, "plan", str(path), "--div-budget", "100")
        assert code == 0
        assert "infeasible" in out


class TestPositiveIntFlags:
    @pytest.mark.parametrize("argv", [
        ["plan", "lenet", "--div-budget", "100", "--tile"],
        ["plan", "lenet", "--div-budget"],
        ["plan", "lenet", "--grp-budget"],
        ["report", "lenet", "--tile"],
        ["verify", "lenet", "--batch-size"],
    ], ids=["tile", "div-budget", "grp-budget", "report-tile", "batch-size"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_rejected_when_parsed(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "must be >= 1" in captured.err

    def test_non_integer_message_unchanged(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan", "lenet", "--div-budget", "100", "--tile", "abc"])
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_negative_seed_rejected_when_parsed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lenet", "--seed", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err


class TestReport:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "report", "lenet")
        assert code == 0
        assert "feature division" in out
        assert "filter grouping" in out
        assert "predicted ms" in out

    def test_csv_report_single_table(self, capsys):
        code, out, _ = run(capsys, "report", "alexnet", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "layer" and rows[0][-1] == "note"
        assert len(rows) == 6
        assert rows[1][2] == "105415200"

    # each multiply uses one fetched weight, so weight streaming has no
    # throughput term and no flag of its own
    def test_weights_per_clock_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "lenet", "--weights-per-clock", "8"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --weights-per-clock 8" in captured.err

    # the cycle count or the efficiency denominator is then too large
    # for a float
    @pytest.mark.parametrize("flag", ["--add-latency-cycles",
                                      "--efficiency-divisor"])
    def test_overflowing_int_flag_is_an_input_error(self, capsys, flag):
        code, out, err = run(capsys, "report", "lenet", flag, "1" + "0" * 400)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large" in err

    # 1e306 MHz is finite but its kHz value overflows
    @pytest.mark.parametrize("clock", ["inf", "nan", "1e306"])
    def test_non_finite_clock_rejected(self, capsys, clock):
        code, out, err = run(capsys, "report", "lenet", "--clock-mhz", clock)
        assert code == 2 and out == ""
        assert err == "error: clock_mhz must be positive and finite\n"

    # a subnormal or tiny normal clock prices lenet at inf ms
    @pytest.mark.parametrize("clock", ["1e-320", "1e-306"])
    def test_clock_too_slow_to_price_a_layer_rejected(self, capsys, clock):
        code, out, err = run(capsys, "report", "lenet", "--clock-mhz", clock)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "clock_mhz" in err


class TestPublicSurface:
    def test_all_names_resolve(self):
        assert sorted(csfsim.__all__) == [
            "ConfigError", "CsfFormatError", "CsfStream", "LayerSpec",
            "NetworkConfig", "PerfParams", "PlanError", "TraceCounters",
            "decode_csf", "dense_conv", "dense_fc", "dense_trace",
            "deserialize_csf", "efficiency_per_pe", "encode_csf",
            "load_network_config", "mac_count", "output_shape",
            "parse_network_config", "plan_feature_division",
            "plan_filter_grouping", "predict_runtime", "quantize_shift",
            "random_sparse_filters", "render_network_config", "run_conv",
            "run_fc", "run_layer_batched", "serialize_csf", "stack_filters",
            "stack_trace"]
        for name in csfsim.__all__:
            assert getattr(csfsim, name) is not None


class TestParserReuse:
    """One parser serves every `main` call and carries nothing between them."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        assert run(capsys, "report", "lenet", "--pe-count", "4")[0] == 0
        assert run(capsys, "report", "lenet") == (0, REPORT_LENET, "")

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lenet", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", "lenet")
        assert code == 0 and "4/4 layers passed" in out


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, expected", [
        (["report", "lenet"], REPORT_LENET),
        (["report", "lenet", "--csv"], REPORT_LENET_CSV),
        (["plan", "lenet", "--div-budget", "3000", "--grp-budget", "500",
          "--csv"], PLAN_LENET_SMALL_BUDGETS_CSV),
        (["plan", "alexnet", "--div-budget", "100352", "--grp-budget",
          "200704", "--budget-max"], PLAN_ALEXNET_BUDGET_MAX),
        (["report", "alexnet", "--csv"], REPORT_ALEXNET_CSV),
        (["report", "vgg16", "--csv"], REPORT_VGG16_CSV),
    ], ids=["report-text", "report-csv", "plan-joined-notes-csv",
            "plan-budget-max-text", "report-alexnet-csv", "report-vgg16-csv"])
    def test_complete_output(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestConfigResolution:
    def test_bundled_name_without_extension(self, capsys):
        code, _, _ = run(capsys, "macs", "lenet")
        assert code == 0

    def test_explicit_path_wins(self, capsys, tmp_path):
        path = tmp_path / "lenet"  # a file literally named "lenet"
        path.write_text("[layer]\nname = X\ntype = fc\nin_channels = 1\n"
                        "in_height = 1\nin_width = 1\nfilters = 1\n")
        code, out, _ = run(capsys, "macs", str(path))
        assert code == 0 and "X" in out

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "macs", "nonexistent.cfg")
        assert code == 2 and "not found" in err

    def test_config_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[layer]\nname = A\ntype = warp\n")
        code, _, err = run(capsys, "macs", str(path))
        assert code == 2 and "unknown type" in err

    @pytest.mark.parametrize("command", [
        ["macs"], ["plan", "--div-budget", "100"], ["verify"], ["report"],
    ], ids=["macs", "plan", "verify", "report"])
    def test_oversize_kernel_names_its_line(self, capsys, tmp_path, command):
        path = tmp_path / "big.cfg"
        path.write_text("# too wide\n[layer]\nname = BIG\ntype = conv\n"
                        "in_channels = 1\nin_height = 5\nin_width = 5\n"
                        "kernel = 11\nstride = 1\npad = 0\nfilters = 2\n")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2 and out == ""
        assert err == ("error: line 2: BIG: kernel 11 exceeds padded "
                       "input 5x5\n")
