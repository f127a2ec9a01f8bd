"""tests/big.cfg, which CI verifies: each layer reaches the path it is for.

One `csfsim verify` run at density 0.4 with seed 1, at the shipped tile
and group constants, records each layer's window copies (the oracle
copies one channel at a time, the engine one block of channels) and the
oracle's channel groups.
"""

from collections import defaultdict
from pathlib import Path

import pytest

from csfsim import cli, dense, engine, load_network_config
from csfsim.layers import output_shape

BIG_CFG = Path(__file__).with_name("big.cfg")


@pytest.fixture(scope="module")
def paths():
    """Per layer name: its spec and what each spied call recorded."""
    seen = defaultdict(lambda: defaultdict(list))
    current = []

    def spy(label, module, name, record):
        real = getattr(module, name)

        def wrapper(*args):
            result = real(*args)
            seen[current[-1].name][label].append(record(*args, result))
            return result
        patch.setattr(module, name, wrapper)

    def verify_layer(layer, *args):
        current.append(layer)
        return real_verify_layer(layer, *args)

    with pytest.MonkeyPatch.context() as patch:
        real_verify_layer = cli._verify_layer
        patch.setattr(cli, "_verify_layer", verify_layer)
        # both copy (taps, channels, rows, out_w) for the channel slice
        # chans, the oracle one channel at a time
        spy("oracle rows", dense, "_copy_windows",
            lambda padded, chans, layer, out, _: out.shape[-2])
        spy("engine copies", engine, "_copy_windows",
            lambda padded, chans, layer, out, _: (chans, out.shape))
        # each group's channel count and its channels' paths: a dense
        # channel has no plan, a listed one lists its taps' pairs
        spy("groups", dense, "_list_group",
            lambda w, c0, c1, plans: (c1 - c0, {
                "dense" if plan is None
                else "listed" if any(target.size for target, _ in plan[0])
                else "empty" for plan in plans}))
        assert cli.main([
            "verify", str(BIG_CFG), "--density", "0.4", "--seed", "1"]) == 0
    assert tuple(current) == load_network_config(BIG_CFG).layers
    return {layer.name: (layer, seen[layer.name]) for layer in current}


@pytest.mark.parametrize("name", ["BIG", "BIG160", "BIG224"])
def test_engine_runs_in_several_row_tiles(paths, name):
    layer, seen = paths[name]
    _, out_h = output_shape(layer)
    copies = seen["engine copies"]
    assert copies and all(shape[2] < out_h for _, shape in copies)


@pytest.mark.parametrize("name", ["BIG160", "BIG224"])
def test_oracle_runs_in_several_row_tiles(paths, name):
    layer, seen = paths[name]
    _, out_h = output_shape(layer)
    assert seen["oracle rows"] and max(seen["oracle rows"]) < out_h


def test_wide_runs_in_one_row_oracle_tiles(paths):
    assert set(paths["WIDE"][1]["oracle rows"]) == {1}


def test_groups_listed_in_a_group_of_14_and_one_of_6(paths):
    assert [size for size, _ in paths["GROUPS"][1]["groups"]] == [14, 6]


def test_k13_runs_one_169_tap_window_in_one_block(paths):
    assert paths["K13"][1]["engine copies"] == [
        (slice(0, 4), (169, 4, 1, 1))]


@pytest.mark.parametrize("name", ["BIG", "BIG160", "K13", "GROUPS"])
def test_groups_take_dense_and_listed_channels(paths, name):
    groups = paths[name][1]["groups"]
    assert groups and all({"dense", "listed"} <= kinds
                          for _, kinds in groups)
