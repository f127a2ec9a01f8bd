"""Golden digests of the dense conv oracle on every bundled conv layer.

Each digest is the sha256 of `dense_conv`'s output bytes for one conv
layer of the bundled lenet, alexnet and vgg16 configs at density 0.1 or
0.5, drawn as `csfsim verify --seed 11` draws it: bank seed 11 + 7919 * i
and input seed that plus 3571, with i the layer's index in its config.
The digests were made from `_plane_conv` in `tests/test_dense.py`, the
whole-plane loop over every weight, not from `dense_conv`, so they pin
the oracle's bytes to an independent reference.

Marked slow: the oracle takes about 12 s over the 40 cases on a 2-vCPU VM.
"""

import hashlib

import pytest

from csfsim import dense_conv, random_sparse_filters
from csfsim.cli import _load_config, _verify_input

# (config, layer, density) -> sha256 of the output bytes
_DIGESTS = {
    ("lenet", "CONV1", 0.1):
        "7e54655d925c053f41a9f89d4fa6d6b0dcd0599e04d6a7ee77dcb456743ccffb",
    ("lenet", "CONV1", 0.5):
        "18de66d08c7f55e71f873a27d4ef0dc72b44b34470a551dedbe89b9a8ef67ef4",
    ("lenet", "CONV2", 0.1):
        "973008b0142c48b19239db5b8e7b7e257a31e213fd4d67632c04271d707369cd",
    ("lenet", "CONV2", 0.5):
        "42b831af4a5c263323cee3367d829e9050c03a8dac0478e1859ed47b3ba337d5",
    ("alexnet", "CONV1", 0.1):
        "4a353006a2455464444a89c33dff10c4b7e17bef363aed8190459ca7992e4714",
    ("alexnet", "CONV1", 0.5):
        "4b0b9de894c8ccce14796e1e782674eac82686c17d270a703dec6054ccf9a6de",
    ("alexnet", "CONV2", 0.1):
        "ff0b566155d0ec6df24f589c2fe5f80fd7212be23db614b8abfb819ae5e9794a",
    ("alexnet", "CONV2", 0.5):
        "f24b23578ae193a1bc697a096b557776c7fffc274b0ea0b624f1ab887172c30b",
    ("alexnet", "CONV3", 0.1):
        "d1d4580153a731f1a166330d15d4891d2495f0530d4b74ee93fc253ee6915934",
    ("alexnet", "CONV3", 0.5):
        "726a954279366677c7a8d6a228bb7317369f376e9994bc5c2aaab15b173cf166",
    ("alexnet", "CONV4", 0.1):
        "164679fb571c5c23d682576e56b21e080072c86aab35d9ff3d1b15bf0f6989c8",
    ("alexnet", "CONV4", 0.5):
        "a2e0a107bc14b24ecee8c424624fdbf899ca7841084fb50c698e4d147400ab6d",
    ("alexnet", "CONV5", 0.1):
        "76bd97584488de3b166d48bfefbcfe067fac67cfb356aabade48ca829b1c2206",
    ("alexnet", "CONV5", 0.5):
        "8d56b90eb805cbcb15a813b8534970e06359f8434ee3c8c29a5316dab6f9aeb9",
    ("vgg16", "CONV1-1", 0.1):
        "4bf83b733d7a036ff40ab370137af04435b2722e48f11cc8065fc989efedad35",
    ("vgg16", "CONV1-1", 0.5):
        "36675dd5ffdc22f6c2ca5b72c549acb92e149a6d430a65793ee706c1881ed5b4",
    ("vgg16", "CONV1-2", 0.1):
        "49a751a6c560e9840c7664058482c57e996b7b0f1483cc4cf98dbecf5a40a8ad",
    ("vgg16", "CONV1-2", 0.5):
        "2e0d502756f6bcf505e465ea39acf5968e3b024511db08456b1947a6c1d601cf",
    ("vgg16", "CONV2-1", 0.1):
        "45dd8add35d100a992c961afc18e5f4e1e0961db25b1129bbb4166636892a47c",
    ("vgg16", "CONV2-1", 0.5):
        "c0e471ece0f2390ed7cd06593006261e1682d4e21455405daef49b591bba58ae",
    ("vgg16", "CONV2-2", 0.1):
        "aca130fceb46044c762282f6a9c305ae34397475200186fdc34e724f5347b520",
    ("vgg16", "CONV2-2", 0.5):
        "be65495bafaf2c382aafdf6a9f7e66a5282cb870a2db28a23d559c0d53a0c273",
    ("vgg16", "CONV3-1", 0.1):
        "2ca8570ca520b5c32e2e002a581c8349020beeb6dcfdcee7a508b5e17f6211a7",
    ("vgg16", "CONV3-1", 0.5):
        "e590d9978ffdd73b725a9d22ffd0b998639bf1c9ad1f460a1886d63c8c848d01",
    ("vgg16", "CONV3-2", 0.1):
        "6fbafb0bdb0e81a8fa9111d53561347f75609874f746153f1522b54397948ab7",
    ("vgg16", "CONV3-2", 0.5):
        "727a32cbf01a835b98b6a494ca510a033c73b1606846caf52b3e988e91e88113",
    ("vgg16", "CONV3-3", 0.1):
        "4c6372a8b23586f4a3fa8ec07f6c8544b6e99190cb3f73312179261cdc4ed9e3",
    ("vgg16", "CONV3-3", 0.5):
        "f3615de08d92db990a2e3380215e40ad80d83eec7dd3a1122d5acb422d868c8a",
    ("vgg16", "CONV4-1", 0.1):
        "7480f72dd985e06a9882fb3907e942f32d404950d7abf4f63e4195f642f56cce",
    ("vgg16", "CONV4-1", 0.5):
        "0300a8af0fb637591a03a15b969c8b75d024fcf85286d80663cd42954edcd826",
    ("vgg16", "CONV4-2", 0.1):
        "9b34177135e0a045cb24a0921f0f850b2997af8ac40f2547c04852eb1b131ea2",
    ("vgg16", "CONV4-2", 0.5):
        "8cff1e1b1cb21f94601fb4844f244ee175f9d241fd74fa1b7d43104f4535ddb4",
    ("vgg16", "CONV4-3", 0.1):
        "b08016cab89b4308fef8f6c9e4a4f5fc752dc1f2dce57d4f5943e82825cc780c",
    ("vgg16", "CONV4-3", 0.5):
        "b0cddef0f1aabdbab4106fc6e44142d5d00943b19c69ee6d103bf7b71efa41e3",
    ("vgg16", "CONV5-1", 0.1):
        "e786ec1e0e5ecdffeacdab37013467ee36f2008ad3ac8f72c2ba6cfe2eb9707f",
    ("vgg16", "CONV5-1", 0.5):
        "35268cc694ef89cab67de4cc3b8cad93b6c56367348f520a58dce0b26ad92322",
    ("vgg16", "CONV5-2", 0.1):
        "779bba0bf805a738b356d5ec121a81cfb77ced2ff910498c98b4cfd5eb98d707",
    ("vgg16", "CONV5-2", 0.5):
        "32ca25b5778aff4f31a39d312047030a9634b1c940616094445a7f362bf59fd6",
    ("vgg16", "CONV5-3", 0.1):
        "49a1b9d1350fb4e08962bdc9e1e9053ec8034dbfb7b697c9897b7736ab6f62e0",
    ("vgg16", "CONV5-3", 0.5):
        "b52278d941f7deed00ce71a665657b5718b9182e9be1f565eaeab7fcd5871adf",
}


@pytest.mark.slow
@pytest.mark.parametrize("config, name, density", list(_DIGESTS),
                         ids=str)
def test_dense_conv_digest(config, name, density):
    layers = _load_config(config).layers
    i = next(i for i, layer in enumerate(layers) if layer.name == name)
    seed = 11 + 7919 * i
    bank = random_sparse_filters(layers[i], density, seed)
    features = _verify_input(layers[i], seed + 3571)
    out = dense_conv(features, bank, layers[i])
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        _DIGESTS[config, name, density]
