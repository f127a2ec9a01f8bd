"""Layer shape math and dense arithmetic counts."""

import pytest

from csfsim import LayerSpec, mac_count, output_shape, random_sparse_filters


def conv(name="L", channels=3, height=8, width=8, kernel=3, stride=1, pad=0,
         filters=4):
    return LayerSpec(name, "conv", channels, height, width, kernel, stride,
                     pad, filters)


class TestLayerSpec:
    def test_fc_forces_unit_kernel_stride_pad(self):
        layer = LayerSpec("f", "fc", 4, 6, 6, kernel=7, stride=3, pad=2,
                          filters=10)
        assert (layer.kernel, layer.stride, layer.pad) == (1, 1, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            LayerSpec("x", "pool", 1, 1, 1, 1, 1, 0, 1)

    @pytest.mark.parametrize("field,value", [
        ("channels", 0), ("height", 0), ("width", -1), ("kernel", 0),
        ("stride", 0), ("filters", 0),
    ])
    def test_nonpositive_extent_rejected(self, field, value):
        kwargs = dict(name="x", kind="conv", channels=1, height=4, width=4,
                      kernel=1, stride=1, pad=0, filters=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            LayerSpec(**kwargs)

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            conv(pad=-1)

    def test_kernel_larger_than_padded_input_refused_at_construction(self):
        with pytest.raises(ValueError, match="^B: kernel 5 exceeds padded "
                                             "input 2x2$"):
            LayerSpec("B", "conv", 1, 2, 2, 5, 1, 0, 1)

    @pytest.mark.parametrize("layer,shape", [
        (conv(channels=3, height=8, width=6, kernel=5, pad=1, filters=4),
         (4, 3, 5, 5)),
        (LayerSpec("f", "fc", 2, 3, 5, 1, 1, 0, 7), (7, 2, 3, 5)),
    ], ids=["conv", "fc"])
    def test_bank_shape(self, layer, shape):
        assert layer.bank_shape == shape
        assert random_sparse_filters(layer, 0.5, 0).shape == shape


class TestOutputShape:
    def test_large_stride_no_pad(self):
        assert output_shape(conv(height=227, width=227, kernel=11,
                                 stride=4)) == (55, 55)

    def test_same_size_padded(self):
        assert output_shape(conv(height=224, width=224, kernel=3, stride=1,
                                 pad=1)) == (224, 224)

    def test_floor_rule_on_leftover(self):
        assert output_shape(conv(height=5, width=5, kernel=3, stride=2)) == (2, 2)

    def test_fc_is_single_element(self):
        assert output_shape(LayerSpec("f", "fc", 4, 6, 6, 1, 1, 0, 3)) == (1, 1)

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            output_shape(conv(height=4, width=4, kernel=5))

    def test_pad_rescues_large_kernel(self):
        assert output_shape(conv(height=4, width=4, kernel=5, pad=1)) == (2, 2)

    def test_rectangular_input(self):
        assert output_shape(conv(height=9, width=13, kernel=3, stride=2)) == (6, 4)

    def test_exhaustive_unpadded_formula(self):
        # floor((w - k) / s) + 1 over a dense little grid of shapes
        for w in range(1, 33):
            for k in range(1, w + 1):
                for s in range(1, 9):
                    got_w, got_h = output_shape(conv(height=w, width=w,
                                                     kernel=k, stride=s))
                    assert got_w == got_h == (w - k) // s + 1


class TestMacCount:
    def test_alexnet_first_layer(self):
        layer = conv(channels=3, height=227, width=227, kernel=11, stride=4,
                     filters=96)
        assert mac_count(layer) == 105_415_200

    def test_vgg16_first_layer(self):
        layer = conv(channels=3, height=224, width=224, kernel=3, stride=1,
                     pad=1, filters=64)
        assert mac_count(layer) == 86_704_128

    def test_unit_everything(self):
        assert mac_count(conv(channels=1, height=1, width=1, kernel=1,
                              stride=1, filters=1)) == 1

    def test_fc_count(self):
        layer = LayerSpec("f", "fc", 50, 4, 4, 1, 1, 0, 500)
        assert mac_count(layer) == 500 * 50 * 4 * 4

    def test_formula_identity(self):
        layer = conv(channels=7, height=19, width=23, kernel=5, stride=2,
                     pad=1, filters=11)
        out_w, out_h = output_shape(layer)
        assert mac_count(layer) == 11 * 7 * 25 * out_w * out_h

    def test_counts_are_python_ints(self):
        # large layers stay exact, no float or fixed-width rollover
        layer = conv(channels=512, height=224, width=224, kernel=3, pad=1,
                     filters=512)
        count = mac_count(layer)
        assert isinstance(count, int)
        assert count == 512 * 512 * 9 * 224 * 224
