"""Golden digests of the CSF stream bytes of every bundled layer's bank.

Each digest is the sha256 of the bytes `serialize_csf` writes for one
layer's bank, stack after stack, in the 64-filter stacks `csfsim verify`
runs by default. The banks are drawn as `csfsim verify` draws them, with
bank seed 7919 * i and i the layer's index in its config: every conv
layer of the bundled lenet, alexnet and vgg16 configs, and lenet's two
fc layers in the fc profile, at density 0.1 and 0.5. Round-trip tests
cannot see a byte change that encode and decode make together; these
digests can.
"""

import hashlib

import pytest

from csfsim import (encode_csf, random_sparse_filters, serialize_csf,
                    stack_filters)
from csfsim.cli import _load_config

_STACK = 64

# (config, layer, density) -> sha256 of the layer's stream bytes
_DIGESTS = {
    ("lenet", "CONV1", 0.1):
        "8c5d346733f7e4a67d11e1690b6a35ca2055fc65c8df9c33ef7bc212187e8a7a",
    ("lenet", "CONV1", 0.5):
        "5a586156d350b3bb6800aedcda97a9e2b611c6f5601687baa5e518004b6379b0",
    ("lenet", "CONV2", 0.1):
        "0064f39b97a16143669931493e1908bc98e4700b6a4179a5cde3dbd1c542d122",
    ("lenet", "CONV2", 0.5):
        "bf07a21bad87704c1c9d7f0a56509f2ec63239ced22b6d19b2757670fc7d6cec",
    ("lenet", "FC1", 0.1):
        "16065fc8620bef0d8d525f55588601eac6718d369d03b2ab4e0ec4e51e1d82ee",
    ("lenet", "FC1", 0.5):
        "93e56719a84bd3d1ac9ddc2df52196337dff24536575fcef8a96b89c5876cd99",
    ("lenet", "FC2", 0.1):
        "215bba4c340531bd4bb7e0f1cefbac1da07b761b62ef9ed1ae3a109e0212adb6",
    ("lenet", "FC2", 0.5):
        "a2609892b89ed37a2a45b9980f579b1074279440e04393bb6455e6e2dc9bebf7",
    ("alexnet", "CONV1", 0.1):
        "dd11c874db7c8fa1250d376347cca429d27ce405ad4155ae2894b8244fad1667",
    ("alexnet", "CONV1", 0.5):
        "fa0492a413926d313c4de876ccd766bc0bfd17501c98db3b4519e2f52d6c7c10",
    ("alexnet", "CONV2", 0.1):
        "67871a3a9e301ee3089caab7ace43b70384436bf883d6aa21e44121ef2d90c10",
    ("alexnet", "CONV2", 0.5):
        "9b403a2e7d77b785415180f8e1237e349c76aa112476a46565b404e187df51e3",
    ("alexnet", "CONV3", 0.1):
        "40deeccb71d40fa34c2ec5c976e08926ac2599c409f2ec616e74b27038d4104b",
    ("alexnet", "CONV3", 0.5):
        "b863ab0ef2ba8e4f44c6ce86bd46d9e2b2ebda26ce145d393d5fdf8d87b42124",
    ("alexnet", "CONV4", 0.1):
        "2b6346d5acf9a4dfd8177918245fbe82b455518c92601683d8fec8a77bf020f3",
    ("alexnet", "CONV4", 0.5):
        "684d8ca410e0ad39c52623b5a8ee6656976a00688c989430cb9045c722644961",
    ("alexnet", "CONV5", 0.1):
        "b7132956eead36b700e7143af06e74fb399b6fa5e448225df6d5be1028dfd6e5",
    ("alexnet", "CONV5", 0.5):
        "527a7f24933a0d991b6769a61b1e38c61680125a5af6ab66ff59585fc2e99032",
    ("vgg16", "CONV1-1", 0.1):
        "4ec8d3fc302af7acb34e2fd32aa4c064db5b3f15484a64309d1d132e9b746511",
    ("vgg16", "CONV1-1", 0.5):
        "cf127edde99022c65fad803778f2d1160f2f7e7dd2cbbd5178eab215579107f9",
    ("vgg16", "CONV1-2", 0.1):
        "b86ccba82d79e0b0c19a055b7a802a57b2d0a1ce964bc26cbb48fe8c7acf1b9f",
    ("vgg16", "CONV1-2", 0.5):
        "72c07908f86ecf20db00de0cec2fd5153a590c9f110686367a990949078019e8",
    ("vgg16", "CONV2-1", 0.1):
        "0a55f745e93ef524c1307841b9fd9978f4cd20b1b8b09a70f722823eeb510b16",
    ("vgg16", "CONV2-1", 0.5):
        "4a02a702af42fc9ab8745c30b41f2dff4ad27e376a72250cd852859ffe83a175",
    ("vgg16", "CONV2-2", 0.1):
        "d48760321057a80fed29ba0d270958c2b47b0433c635ec7cddb1fe58c556542a",
    ("vgg16", "CONV2-2", 0.5):
        "01b26f0ca96d4999afc10a71b0a3e8cbd7d09db7ffe1ee5d6a810ba6293a1dd6",
    ("vgg16", "CONV3-1", 0.1):
        "5275c7f37b0f27605d104cbe3c8415fe6bb3bcde6e4f97c8f334af4621198454",
    ("vgg16", "CONV3-1", 0.5):
        "7d14bc3573f3614a7c52ab3085b18ec4a4e98ae39f03eaad05b24e749f03ba29",
    ("vgg16", "CONV3-2", 0.1):
        "7b3b08e2d4db67818a88e59581eb8e6e1791ebefd51408edddd18783e1e119ec",
    ("vgg16", "CONV3-2", 0.5):
        "24cbaf8d2a53ccb7d9170692daaf11942422e0dd9c56b48ecbf9be90eaf72886",
    ("vgg16", "CONV3-3", 0.1):
        "b094619cb76d269a11dbb85c660048ec8628b8b8600f91934f3959383ca51af7",
    ("vgg16", "CONV3-3", 0.5):
        "e56e67ed3cbb9c224da48236b921dd0aada9b8130544846b5c7604ca1a7bb366",
    ("vgg16", "CONV4-1", 0.1):
        "d6b4bc0eae09d1223f125a4f1e6302baca8c66a94ff13223a1e31dd965a16308",
    ("vgg16", "CONV4-1", 0.5):
        "0fee28cb35833cc3aadf50e3c24915bc6463e1e20a40efb85a0eac0cc4765772",
    ("vgg16", "CONV4-2", 0.1):
        "3c5f1aafb810ba0a25ac1cbb7ecab6fff97c9629fb7da69fa8652d509c538dc0",
    ("vgg16", "CONV4-2", 0.5):
        "1f292305773c0c70c9b6a032712ae0d520722b0b10bff05c8ff83caef36ddbaa",
    ("vgg16", "CONV4-3", 0.1):
        "dd61ac0132327db076996e3d337797f4ee3fdf086f4de2ed6a8e844f8ef3617e",
    ("vgg16", "CONV4-3", 0.5):
        "875229138a523e37d57903d0a2167e5d9a6e244b1ded76a6eed19722e8bd3699",
    ("vgg16", "CONV5-1", 0.1):
        "a3412cf11f6a3c5b811ae16ab6b3eba192fc35a08e9a37e4303422e6c61fae3b",
    ("vgg16", "CONV5-1", 0.5):
        "f3cc29f1d8a22c8ac6f665418c433c1dd48c3503406345a6d4e3aac1dfab25cf",
    ("vgg16", "CONV5-2", 0.1):
        "1355dcba7088c4411527a7affdb9455ca280f67f9b4e5e7e9eb6873c74c00661",
    ("vgg16", "CONV5-2", 0.5):
        "92069e325706161665fcba2a1a598adbe22f3b423a2d8ec53f43611a22969120",
    ("vgg16", "CONV5-3", 0.1):
        "655ead9b5d33bd9ca7f2f23e75fc6586662295a6bc56ba565fa068c9f3aeec80",
    ("vgg16", "CONV5-3", 0.5):
        "beda07f4244d85a359ac0da0f150d8ec8e647563729d1322d7f53d117e6aa441",
}


@pytest.mark.parametrize("config, name, density", list(_DIGESTS),
                         ids=str)
def test_stream_digest(config, name, density):
    layers = _load_config(config).layers
    i = next(i for i, layer in enumerate(layers) if layer.name == name)
    layer = layers[i]
    bank = random_sparse_filters(layer, density, 7919 * i)
    digest = hashlib.sha256()
    for start in range(0, layer.filters, _STACK):
        stack = stack_filters(bank, start, min(_STACK, layer.filters - start))
        digest.update(serialize_csf(encode_csf(stack, layer.kind)))
    assert digest.hexdigest() == _DIGESTS[config, name, density]
