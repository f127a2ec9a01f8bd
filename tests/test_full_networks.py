"""Full-network verify runs over the bundled configs.

Marked slow: excluded from the default pytest invocation, run with
`pytest -m slow`.
"""

import pytest

from csfsim.cli import main


@pytest.mark.slow
# density 0.5 on alexnet: many nonzeros per position, so one channel
# block of the engine holds tens of channels; alexnet-fc's FC6 bank holds
# 37.7M weights and vgg16-fc's 102.8M, generated a chunk at a time
@pytest.mark.parametrize("config,density,layers", [
    ("alexnet", "0.1", 5), ("vgg16", "0.1", 13), ("alexnet", "0.5", 5),
    ("alexnet-fc", "0.09", 3), ("vgg16-fc", "0.04", 3)])
def test_full_network_verify(capsys, config, density, layers):
    code = main(["verify", config, "--density", density, "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == layers
    assert f"{layers}/{layers} layers passed" in out
    assert "FAIL" not in out
