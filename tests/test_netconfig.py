"""Config grammar: parsing, rendering, diagnostics, bundled files."""

from importlib import resources

import pytest

from csfsim import (ConfigError, LayerSpec, NetworkConfig, mac_count,
                    parse_network_config, render_network_config)

ALEXNET_CONV1 = """\
[layer]
name = CONV1
type = conv
in_channels = 3
in_height = 227
in_width = 227
kernel = 11
stride = 4
pad = 0
filters = 96
"""


class TestParse:
    def test_single_conv_section(self):
        config = parse_network_config(ALEXNET_CONV1)
        assert len(config) == 1
        layer = config.layers[0]
        assert layer.name == "CONV1"
        assert (layer.channels, layer.kernel, layer.stride) == (3, 11, 4)
        assert mac_count(layer) == 105_415_200

    def test_bytes_input(self):
        config = parse_network_config(ALEXNET_CONV1.encode())
        assert len(config) == 1

    def test_empty_file(self):
        assert len(parse_network_config("")) == 0
        assert len(parse_network_config("# only a comment\n\n")) == 0

    def test_comments_and_blank_lines(self):
        text = "# bank\n\n" + ALEXNET_CONV1.replace(
            "filters = 96", "filters = 96  # trailing note")
        config = parse_network_config(text)
        assert config.layers[0].filters == 96

    def test_fc_section(self):
        text = ("[layer]\nname = FC1\ntype = fc\nin_channels = 50\n"
                "in_height = 4\nin_width = 4\nfilters = 500\n")
        layer = parse_network_config(text).layers[0]
        assert layer.kind == "fc"
        assert (layer.kernel, layer.stride, layer.pad) == (1, 1, 0)

    def test_missing_key_names_key_and_line(self):
        text = ALEXNET_CONV1.replace("filters = 96\n", "")
        with pytest.raises(ConfigError, match="filters") as err:
            parse_network_config(text)
        assert "line 1" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'dilation'"):
            parse_network_config(ALEXNET_CONV1 + "dilation = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_network_config(ALEXNET_CONV1 + "filters = 7\n")

    def test_duplicate_layer_name(self):
        with pytest.raises(ConfigError, match="duplicate layer name"):
            parse_network_config(ALEXNET_CONV1 + "\n" + ALEXNET_CONV1)

    def test_non_integer_value(self):
        text = ALEXNET_CONV1.replace("stride = 4", "stride = four")
        with pytest.raises(ConfigError, match="integer") as err:
            parse_network_config(text)
        assert err.value.line == 8

    def test_unknown_type(self):
        text = ALEXNET_CONV1.replace("type = conv", "type = pool")
        with pytest.raises(ConfigError, match="unknown type"):
            parse_network_config(text)

    def test_fc_rejects_conv_only_keys(self):
        text = ("[layer]\nname = F\ntype = fc\nin_channels = 2\n"
                "in_height = 2\nin_width = 2\nkernel = 3\nfilters = 4\n")
        with pytest.raises(ConfigError, match="not allowed for fc"):
            parse_network_config(text)

    def test_key_before_header(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_network_config("name = X\n" + ALEXNET_CONV1)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section header"):
            parse_network_config("[network]\n" + ALEXNET_CONV1)

    def test_stray_text(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_network_config("[layer]\nnonsense\n")

    def test_invalid_shape_reported_with_line(self):
        text = ALEXNET_CONV1.replace("in_height = 227", "in_height = 0")
        with pytest.raises(ConfigError, match="height"):
            parse_network_config(text)

    def test_kernel_wider_than_padded_input_at_header_line(self):
        text = "# pad 1 makes the plane 9x9\n" + ALEXNET_CONV1.replace(
            "in_height = 227", "in_height = 7").replace(
            "in_width = 227", "in_width = 7").replace("pad = 0", "pad = 1")
        with pytest.raises(ConfigError) as exc:
            parse_network_config(text)
        assert exc.value.line == 2
        assert str(exc.value) == (
            "line 2: CONV1: kernel 11 exceeds padded input 9x9")

    def test_kernel_equal_to_padded_input_accepted(self):
        text = ALEXNET_CONV1.replace("in_height = 227", "in_height = 9").replace(
            "in_width = 227", "in_width = 9").replace("pad = 0", "pad = 1")
        (layer,) = parse_network_config(text)
        assert (layer.height, layer.width, layer.pad) == (9, 9, 1)


class TestRender:
    def test_parse_render_identity(self):
        layers = (
            LayerSpec("C1", "conv", 3, 32, 32, 5, 2, 1, 16),
            LayerSpec("F1", "fc", 16, 4, 4, 1, 1, 0, 10),
        )
        config = NetworkConfig(layers)
        text = render_network_config(config)
        assert parse_network_config(text) == config

    def test_render_omits_fixed_fc_keys(self):
        text = render_network_config(
            NetworkConfig((LayerSpec("F", "fc", 2, 2, 2, 1, 1, 0, 4),)))
        assert "kernel" not in text and "stride" not in text

    def test_empty_config_renders_empty(self):
        assert render_network_config(NetworkConfig(())) == ""

    @pytest.mark.parametrize("name", ["a#b", " x ", "x\t", "a\nb", "a\r\nb",
                                      "a\u2028b"])
    def test_name_that_would_not_parse_back_refused(self, name):
        config = NetworkConfig((
            LayerSpec("ok", "fc", 1, 1, 1, 1, 1, 0, 1),
            LayerSpec(name, "conv", 3, 32, 32, 5, 2, 1, 16),
        ))
        with pytest.raises(ValueError, match="layer name") as exc:
            render_network_config(config)
        assert repr(name) in str(exc.value)

    def test_duplicate_name_refused(self):
        config = NetworkConfig((
            LayerSpec("A", "fc", 1, 1, 1, 1, 1, 0, 1),
            LayerSpec("A", "conv", 3, 32, 32, 5, 2, 1, 16),
        ))
        with pytest.raises(ValueError, match="^duplicate layer name 'A'$"):
            render_network_config(config)

    def test_oversize_kernel_refused(self):
        config = NetworkConfig((
            LayerSpec("A", "fc", 1, 1, 1, 1, 1, 0, 1),
            LayerSpec("B", "conv", 1, 2, 2, 5, 1, 0, 1),
        ))
        with pytest.raises(ValueError, match="^B: kernel 5 exceeds padded "
                                             "input 2x2$"):
            render_network_config(config)

    @pytest.mark.parametrize("name", ["", "a=b", "a b", "[layer]", "\u00e9"])
    def test_unusual_names_round_trip(self, name):
        config = NetworkConfig((LayerSpec(name, "conv", 3, 32, 32, 5, 2, 1,
                                          16),))
        assert parse_network_config(render_network_config(config)) == config


class TestBundledConfigs:
    @pytest.mark.parametrize("name,layer_count", [
        ("alexnet.cfg", 5), ("vgg16.cfg", 13), ("lenet.cfg", 4),
        ("alexnet-fc.cfg", 3), ("vgg16-fc.cfg", 3),
    ])
    def test_bundled_config_parses(self, name, layer_count):
        text = resources.files("csfsim").joinpath("configs", name).read_text()
        config = parse_network_config(text)
        assert len(config) == layer_count
        names = [layer.name for layer in config]
        assert len(set(names)) == len(names)
        assert parse_network_config(render_network_config(config)) == config

    def test_alexnet_macs(self):
        text = resources.files("csfsim").joinpath(
            "configs", "alexnet.cfg").read_text()
        config = parse_network_config(text)
        assert [mac_count(l) for l in config] == [
            105_415_200, 447_897_600, 149_520_384, 224_280_576, 149_520_384]

    def test_alexnet_fc_macs(self):
        text = resources.files("csfsim").joinpath(
            "configs", "alexnet-fc.cfg").read_text()
        config = parse_network_config(text)
        assert [layer.kind for layer in config] == ["fc"] * 3
        assert [mac_count(l) for l in config] == [
            37_748_736, 16_777_216, 4_096_000]

    def test_vgg16_fc_macs(self):
        text = resources.files("csfsim").joinpath(
            "configs", "vgg16-fc.cfg").read_text()
        config = parse_network_config(text)
        assert [layer.kind for layer in config] == ["fc"] * 3
        assert [mac_count(l) for l in config] == [
            102_760_448, 16_777_216, 4_096_000]

    def test_lenet_macs(self):
        text = resources.files("csfsim").joinpath(
            "configs", "lenet.cfg").read_text()
        config = parse_network_config(text)
        assert [mac_count(l) for l in config] == [
            288_000, 1_600_000, 400_000, 5_000]
